//! One module per reproduced table/figure.

pub mod ablations;
pub mod cluster_scale;
pub mod cm_vs_terms;
pub mod datasets;
pub mod fig11;
pub mod fig3;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod ingest;
pub mod qps;
pub mod serve_scale;
pub mod store_scale;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table6;
