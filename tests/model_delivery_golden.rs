//! Golden `/v1/model/delivery` response bodies.
//!
//! Pins the exact bytes `Api::handle` returns over the grid the
//! `serve_mixed` benchmark samples — g 2–8 × K 1–5 × L 1–3 × T ∈ {60,
//! 180, 360, 720, 1080} — plus a few points at deadline 10⁶, where the
//! uniformization window sits far out in the Poisson tail. Every K ≥ 2
//! point runs the uniformization path of `analysis::HypoExp` (the uniform
//! abstraction ties the K group stages), so any change to that evaluator
//! that moves a served bit fails here.
//!
//! Regenerate deliberately with
//! `UPDATE_GOLDEN=1 cargo test --test model_delivery_golden`.

use std::sync::Arc;

use onion_dtn::serve::{Api, ApiLimits, Request, ServeStats};

fn golden_path() -> String {
    format!(
        "{}/tests/golden/model_delivery_grid.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// The request bodies of the grid, in file order.
fn grid() -> Vec<String> {
    let mut bodies = Vec::new();
    for g in 2..=8usize {
        for k in 1..=5usize {
            for l in 1..=3u32 {
                for t in [60.0f64, 180.0, 360.0, 720.0, 1080.0] {
                    bodies.push(format!(
                        "{{\"group_size\":{g},\"onions\":{k},\"copies\":{l},\"deadline\":{t:?}}}"
                    ));
                }
            }
        }
    }
    for (g, k, l) in [(5usize, 3usize, 1u32), (2, 5, 1), (8, 2, 1), (3, 1, 2)] {
        bodies.push(format!(
            "{{\"group_size\":{g},\"onions\":{k},\"copies\":{l},\"deadline\":1e6}}"
        ));
    }
    // Slow contacts put the Poisson window of a 10⁶ deadline back in the
    // body of the distribution instead of its saturated tail.
    for (lambda, g, k, l) in [(1e-5f64, 5usize, 3usize, 1u32), (2e-6, 8, 4, 2)] {
        bodies.push(format!(
            "{{\"lambda\":{lambda:?},\"group_size\":{g},\"onions\":{k},\"copies\":{l},\
             \"deadline\":1e6}}"
        ));
    }
    bodies
}

/// One line per request: `{"request":<body>,"response":<served body>}`.
fn served_grid() -> String {
    let api = Api::new(
        1,
        1,
        None,
        Arc::new(ServeStats::new()),
        ApiLimits::default(),
    );
    let lines: Vec<String> = grid()
        .into_iter()
        .map(|body| {
            let resp = api.handle(&Request {
                method: "POST".to_string(),
                path: "/v1/model/delivery".to_string(),
                body: body.clone(),
            });
            assert_eq!(resp.status, 200, "{body}: {}", resp.body);
            format!("{{\"request\":{body},\"response\":{}}}", resp.body)
        })
        .collect();
    format!("[\n{}\n]", lines.join(",\n"))
}

#[test]
fn served_delivery_bodies_match_committed_golden() {
    let computed = served_grid();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, format!("{computed}\n")).expect("write golden fixture");
        eprintln!("updated {path}");
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden fixture missing — run with UPDATE_GOLDEN=1 to create it");
    // The file is valid JSON (one object per grid point), and its bytes
    // are the served bodies verbatim.
    serde_json::parse_value(&golden).expect("golden fixture is JSON");
    for (served, pinned) in computed.lines().zip(golden.trim_end().lines()) {
        assert_eq!(served, pinned, "served /v1/model/delivery body drifted");
    }
    assert_eq!(computed, golden.trim_end());
}
