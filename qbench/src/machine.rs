//! The machine and configuration recorded with every result.

use qudit_server::ServerConfig;

/// The `serve` flags every served run uses; everything else is the
/// binary's default `ServerConfig`.
pub const SERVE_ARGS: [&str; 2] = ["--addr", "127.0.0.1:0"];

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// One JSON object: cores, SIMD level, every `ServerConfig` field of the
/// served configuration, the executor's cache capacities, and the
/// TIME_WAIT socket count at start.
pub fn record(workload: &str, seed: u64, seconds: u64, trace: bool, time_wait: usize) -> String {
    let config = ServerConfig {
        addr: SERVE_ARGS[1].to_string(),
        ..ServerConfig::default()
    };
    let simd = format!("{:?}", qudit_sim::kernel::simd_level());
    let simd_env = std::env::var("QUDIT_SIMD").map_or("null".to_string(), |v| quoted(&v));
    let caches = qudit_api::Executor::new().result_cache_stats();
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\
         \"nproc\":{},\"simd_level\":{},\"qudit_simd_env\":{simd_env},\
         \"serve_args\":{},\"server_config\":{},\
         \"executor\":{{\"result_cache_capacity\":{},\"compile_cache_capacity\":\"not exposed by the API\"}},\
         \"tcp_time_wait_at_start\":{time_wait}}}",
        quoted(workload),
        crate::e2e::nproc(),
        quoted(&simd),
        quoted(&SERVE_ARGS.join(" ")),
        quoted(&format!("{config:?}")),
        caches.capacity,
    )
}
