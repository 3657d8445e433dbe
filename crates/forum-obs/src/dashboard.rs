//! Server-side rendered, fully self-contained HTML dashboard.
//!
//! `GET /dashboard` must work with zero external assets — no CDN
//! scripts, no fonts, no stylesheets, no image fetches — so an operator
//! can open it from a machine with no egress and a `curl`'d copy stays
//! readable forever. Everything is rendered here: layout and styling as
//! one inline `<style>` block, history as inline SVG sparklines built
//! from [`TimeSeries`](crate::TimeSeries) samples, and the SLO states as a colored status
//! table. The page meta-refreshes itself (a plain `<meta>` tag, not
//! script) so a browser left open stays live.

use crate::timeseries::Sample;
use std::fmt::Write;

/// One sparkline panel: a title, the formatted latest value, and the
/// recent samples to draw.
pub struct Panel {
    /// Short panel title (e.g. `qps`, `p99 query ms`).
    pub title: String,
    /// The formatted latest value shown next to the title.
    pub value: String,
    /// Samples oldest-first; only the values are drawn (sparklines have
    /// no time axis).
    pub samples: Vec<f64>,
}

impl Panel {
    /// A panel from retained samples, formatting the newest with `fmt`.
    pub fn from_samples(
        title: impl Into<String>,
        samples: &[Sample],
        fmt: impl Fn(f64) -> String,
    ) -> Panel {
        let values: Vec<f64> = samples.iter().map(|s| s.value).collect();
        Panel {
            title: title.into(),
            value: values.last().map(|v| fmt(*v)).unwrap_or_else(|| "—".into()),
            samples: values,
        }
    }
}

/// One row of the status table at the top of the page.
pub struct StatusRow {
    /// Row label (objective or fact name).
    pub label: String,
    /// Formatted value or state.
    pub value: String,
    /// Visual class: `"ok"`, `"warning"`, `"firing"`, or `"info"`.
    pub class: &'static str,
}

/// Escapes `&`, `<`, `>`, and `"` for safe HTML/attribute interpolation.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// Renders an inline SVG sparkline (`width`×`height` px) of `samples`,
/// min-max normalized with a baseline; an empty series renders a
/// placeholder. The SVG references nothing external.
pub fn sparkline(samples: &[f64], width: u32, height: u32) -> String {
    let (w, h) = (width.max(16) as f64, height.max(8) as f64);
    let mut svg = format!(
        "<svg class=\"spark\" width=\"{width}\" height=\"{height}\" \
         viewBox=\"0 0 {w} {h}\" xmlns=\"http://www.w3.org/2000/svg\">"
    );
    let finite: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.len() < 2 {
        svg.push_str(&format!(
            "<text x=\"4\" y=\"{}\" class=\"nodata\">no data</text></svg>",
            h - 4.0
        ));
        return svg;
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in &finite {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if hi - lo < 1e-12 {
        // Flat series: center the line rather than dividing by ~zero.
        lo -= 1.0;
        hi += 1.0;
    }
    let (pad, usable_h) = (2.0, h - 4.0);
    let step = (w - 2.0 * pad) / (finite.len() - 1) as f64;
    let mut points = String::new();
    for (i, &v) in finite.iter().enumerate() {
        let x = pad + i as f64 * step;
        let y = pad + (1.0 - (v - lo) / (hi - lo)) * usable_h;
        let _ = write!(points, "{}{:.1},{:.1}", if i > 0 { " " } else { "" }, x, y);
    }
    let _ = write!(
        svg,
        "<polyline fill=\"none\" stroke=\"currentColor\" stroke-width=\"1.5\" \
         points=\"{points}\"/></svg>"
    );
    svg
}

const STYLE: &str = "\
body{font-family:ui-monospace,monospace;background:#11161d;color:#d8dee6;margin:1.5rem}\
h1{font-size:1.1rem;margin:0 0 .2rem}\
.sub{color:#7a8694;font-size:.8rem;margin-bottom:1rem}\
table.status{border-collapse:collapse;margin-bottom:1.2rem}\
table.status td{border:1px solid #2a333f;padding:.25rem .6rem;font-size:.85rem}\
td.ok{color:#57c878}td.warning{color:#e3b341}td.firing{color:#f85149}td.info{color:#8ab4f8}\
.panels{display:flex;flex-wrap:wrap;gap:.8rem}\
.panel{border:1px solid #2a333f;border-radius:4px;padding:.5rem .7rem;min-width:190px}\
.panel .t{font-size:.75rem;color:#7a8694}\
.panel .v{font-size:1rem;margin:.1rem 0 .3rem}\
.panel svg.spark{color:#57a6ff;display:block}\
svg .nodata{fill:#4a5562;font-size:9px}\
footer{margin-top:1.2rem;color:#4a5562;font-size:.7rem}";

/// Assembles the full self-contained page: status table, sparkline
/// panels, and a footer line. `refresh_secs` sets the meta-refresh
/// interval (0 disables it).
pub fn render_page(
    title: &str,
    refresh_secs: u32,
    status: &[StatusRow],
    panels: &[Panel],
    footer: &str,
) -> String {
    let mut html = String::with_capacity(4096);
    html.push_str("<!DOCTYPE html><html><head><meta charset=\"utf-8\">");
    if refresh_secs > 0 {
        let _ = write!(
            html,
            "<meta http-equiv=\"refresh\" content=\"{refresh_secs}\">"
        );
    }
    let _ = write!(
        html,
        "<title>{}</title><style>{STYLE}</style></head><body><h1>{}</h1>\
         <div class=\"sub\">self-contained server-rendered dashboard; \
         refreshes every {refresh_secs}s</div>",
        escape(title),
        escape(title),
    );
    if !status.is_empty() {
        html.push_str("<table class=\"status\">");
        for row in status {
            let _ = write!(
                html,
                "<tr><td>{}</td><td class=\"{}\">{}</td></tr>",
                escape(&row.label),
                row.class,
                escape(&row.value),
            );
        }
        html.push_str("</table>");
    }
    html.push_str("<div class=\"panels\">");
    for panel in panels {
        let _ = write!(
            html,
            "<div class=\"panel\"><div class=\"t\">{}</div><div class=\"v\">{}</div>{}</div>",
            escape(&panel.title),
            escape(&panel.value),
            sparkline(&panel.samples, 180, 36),
        );
    }
    html.push_str("</div>");
    let _ = write!(html, "<footer>{}</footer></body></html>", escape(footer));
    html
}

/// Human formatting of a nanosecond quantity as ms with 2 decimals.
pub fn fmt_ns_as_ms(ns: f64) -> String {
    format!("{:.2} ms", ns / 1e6)
}

/// Human formatting of a rate with adaptive precision.
pub fn fmt_rate(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}/s")
    } else {
        format!("{v:.2}/s")
    }
}

/// Human formatting of a dimensionless ratio/value.
pub fn fmt_value(v: f64) -> String {
    if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_handles_empty_flat_and_varied_series() {
        let empty = sparkline(&[], 180, 36);
        assert!(empty.contains("no data"), "{empty}");
        let flat = sparkline(&[5.0, 5.0, 5.0], 180, 36);
        assert!(flat.contains("<polyline"), "{flat}");
        let varied = sparkline(&[0.0, 10.0, 5.0], 100, 20);
        assert!(varied.contains("points=\""), "{varied}");
        // NaN samples are dropped, not rendered.
        let with_nan = sparkline(&[1.0, f64::NAN, 2.0], 100, 20);
        assert!(with_nan.contains("<polyline"), "{with_nan}");
        assert!(!with_nan.contains("NaN"), "{with_nan}");
    }

    #[test]
    fn page_is_self_contained_and_escaped() {
        let page = render_page(
            "intentmatch <dash>",
            5,
            &[StatusRow {
                label: "availability".into(),
                value: "firing".into(),
                class: "firing",
            }],
            &[Panel {
                title: "qps \"live\"".into(),
                value: "12.00/s".into(),
                samples: vec![1.0, 2.0, 3.0],
            }],
            "epoch 3",
        );
        assert!(page.starts_with("<!DOCTYPE html>"));
        assert!(page.contains("intentmatch &lt;dash&gt;"));
        assert!(page.contains("qps &quot;live&quot;"));
        assert!(page.contains("class=\"firing\""));
        assert!(page.contains("<svg"));
        // Self-contained: no external fetches. The only absolute URL is
        // the SVG xmlns declaration, which browsers never fetch.
        for needle in ["src=", "href=", "url(", "@import", "<script"] {
            assert!(!page.contains(needle), "{needle} found in page");
        }
    }

    #[test]
    fn panel_from_samples_formats_the_latest() {
        let samples = vec![
            Sample {
                unix_ms: 0,
                value: 1.0,
            },
            Sample {
                unix_ms: 1000,
                value: 2.5,
            },
        ];
        let p = Panel::from_samples("x", &samples, fmt_value);
        assert_eq!(p.value, "2.500");
        let empty = Panel::from_samples("y", &[], fmt_value);
        assert_eq!(empty.value, "—");
    }
}
