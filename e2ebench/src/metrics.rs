//! The metric catalogue and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a unit
//! test keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
/// `p50_ms` is printed beside them but is not one: on a 2-vCPU KVM guest the
/// median jumps between the CPU's slow and fast states from run to run,
/// while p90 stays in the slow state (see `LAYERS.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Every registered tensor kernel, in `cts_tensor::parallel` order. Each
/// gets a `tensor.kernel.<name>.ms_per_op` metric.
pub const KERNELS: &[&str] = &[
    "matmul",
    "matmul.nt",
    "matmul.tn",
    "matmul.transpose_last2",
    "elementwise.zip",
    "elementwise.zip_broadcast",
    "elementwise.unary",
    "elementwise.zip_exact",
    "elementwise.reduce_to_shape",
    "reduce.sum_axis",
    "reduce.sum_axis_grad",
    "reduce.max_axis",
    "reduce.broadcast_to",
    "softmax.forward",
    "softmax.grad",
    "softmax.logsumexp",
    "conv.temporal",
    "conv.temporal_grad_x",
    "conv.temporal_grad_w",
];

/// Per-layer metrics other than the per-kernel ones, printed by every
/// traced run: `(name, unit)`. "op" is one unit of the workload's
/// throughput (a step pair or an answered request).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.kernel_ms_per_op", "ms/op"),
    ("tensor.outside_kernel_ms_per_op", "ms/op"),
    ("tensor.flops_per_op", "flop/op"),
    ("tensor.bytes_per_op", "B/op"),
    ("tensor.simd_share", "ratio"),
    ("tensor.allocs_per_op", "count/op"),
    ("tensor.arena_hit_rate", "ratio"),
    ("tensor.pool_dispatches", "count"),
    ("autograd.backward_ms_per_op", "ms/op"),
    ("autograd.tape_nodes_per_op", "count/op"),
    ("nn.forward_ms_per_op", "ms/op"),
    ("nn.weight_step_ms_per_op", "ms/op"),
    ("nn.arch_step_ms_per_op", "ms/op"),
    ("core.model_build_s", "s"),
    ("core.derive_ms", "ms"),
    ("verify.preflight_ms", "ms"),
    ("data.generate_s", "s"),
    ("data.windows_s", "s"),
    ("runtime.compile_s", "s"),
    ("runtime.front_start_s", "s"),
    ("runtime.plan_ms_per_window", "ms"),
    ("runtime.cache_hit_ratio", "ratio"),
    ("runtime.cache_key_us", "us"),
    ("runtime.cache_lookup_us", "us"),
    ("runtime.cache_insert_us", "us"),
    ("runtime.cache_evict_per_req", "count/op"),
    ("runtime.route_us", "us"),
    ("runtime.admit_us", "us"),
    ("runtime.submit_us", "us"),
    ("runtime.flush_overhead_ms", "ms"),
    ("runtime.shard_peak_depth", "count"),
    ("runtime.degraded", "count"),
    ("obs.trace_overhead", "ratio"),
    ("obs.untraced_throughput_per_s", "1/s"),
    ("obs.traced_throughput_per_s", "1/s"),
];

/// Name of the per-kernel metric for `kernel`.
pub fn kernel_metric(kernel: &str) -> String {
    format!("tensor.kernel.{kernel}.ms_per_op")
}

/// Every per-layer `(name, unit)`, per-kernel metrics included.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    out.extend(KERNELS.iter().map(|k| (kernel_metric(k), "ms/op")));
    out
}

/// Metric values by name. Names the workload never sets print as 0: the
/// layer did no work on that workload.
#[derive(Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    /// Record `name = value`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// The recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Format a measured value with all its digits; non-finite values (which
/// JSON cannot hold) become 0 and are reported by the caller as failures.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `catalogue` with its unit.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(String, &'static str)],
    values: &Values,
) -> String {
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Text of `key`'s string value in one manifest object.
    fn field(obj: &str, key: &str) -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("string closes");
        rest[open..close].to_string()
    }

    /// The objects of one list section of the benchmark manifest.
    fn manifest_objects(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{').skip(1).map(String::from).collect()
    }

    /// Every `"name": "…"` in a metric section with its unit.
    fn manifest_metrics(section: &str) -> Vec<(String, String)> {
        manifest_objects(section)
            .iter()
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn workloads_match_the_manifest() {
        let names: Vec<String> = manifest_objects("workloads")
            .iter()
            .map(|obj| field(obj, "name"))
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }

    #[test]
    fn catalogue_matches_the_manifest() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(manifest_metrics("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(manifest_metrics("per_layer"), layers);
    }

    #[test]
    fn kernel_list_covers_the_registry() {
        let registered: Vec<&str> = cts_tensor::parallel::kernel_stats()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(registered, KERNELS);
    }

    #[test]
    fn result_line_has_every_metric_with_full_digits() {
        let mut v = Values::default();
        v.set("setup_s", 0.123456789);
        v.set("p90_ms", f64::NAN);
        let cat: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        let line = result_line(true, 3, 0, &cat, &v);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.123456789, \"unit\": \"s\"}"));
        assert!(line.contains("\"p90_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
        for (name, _) in &cat {
            assert!(line.contains(&format!("\"{name}\"")));
        }
    }
}
