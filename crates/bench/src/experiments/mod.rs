//! One module per reproduced table/figure, plus [`fagin`], the exact
//! top-k combination that `ablate_combination` compares Algorithm 2 with.

pub mod ablations;
pub mod cluster_scale;
pub mod cm_vs_terms;
pub mod datasets;
pub mod fagin;
pub mod fig11;
pub mod fig3;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod ingest;
pub mod store_scale;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table6;
