//! Multi-device fleet walkthrough: serve the same request mix from a
//! homogeneous fleet (three tile-VM A10s) and from a mixed-architecture one
//! (a real tile-VM A10 plus a cost-model H800), and read the per-device
//! metrics each keeps. Every submission goes to the device with the
//! shallowest queue.
//!
//! Run with `cargo run --example fleet_serving`.

use redfuser::gpusim::GpuArch;
use redfuser::runtime::{DeviceSpec, Engine, FleetConfig, Request, RuntimeConfig};
use redfuser::workloads::random_matrix;

fn runtime() -> RuntimeConfig {
    RuntimeConfig::builder()
        .workers(2)
        .max_batch(8)
        .cache_capacity(32)
        .build()
        .expect("valid config")
}

/// A small stream of batched softmax traffic over three shapes.
fn requests() -> Vec<Request> {
    (0..32u64)
        .map(|seed| {
            Request::softmax(random_matrix(
                4,
                64 + (seed % 3) as usize * 32,
                seed,
                -2.0,
                2.0,
            ))
        })
        .collect()
}

fn serve(name: &str, fleet: FleetConfig) {
    let engine = Engine::with_fleet(fleet);
    println!("=== {name} ({} devices) ===", engine.devices());
    let tickets: Vec<_> = requests()
        .into_iter()
        .map(|r| engine.submit(r).expect("request admitted"))
        .collect();
    engine.run_until_drained();
    let mut per_device = vec![0usize; engine.devices()];
    for ticket in tickets {
        per_device[ticket.wait().expect("request served").device] += 1;
    }
    println!("responses by serving device: {per_device:?}");
    for device in engine.device_snapshots() {
        let m = &device.metrics;
        println!(
            "device {} [{} / {}, fingerprint {:016x}]: \
             {} served, {} shed, p50 {:.1} us, p99 {:.1} us, \
             mean batch {:.2}, cache hit rate {:.0}%",
            device.device,
            device.arch,
            device.backend,
            device.fingerprint,
            m.completed,
            m.shed,
            m.lifetime.p50_us,
            m.lifetime.p99_us,
            m.mean_batch_size,
            m.cache.hit_rate() * 100.0,
        );
    }
    let fleet_wide = engine.metrics();
    println!(
        "fleet: {} served over {} batches\n",
        fleet_wide.completed, fleet_wide.batches
    );
}

pub fn main() {
    serve(
        "homogeneous",
        FleetConfig::homogeneous(GpuArch::a10(), 3, runtime()),
    );
    serve(
        "heterogeneous",
        FleetConfig::heterogeneous(
            vec![
                DeviceSpec::tile_vm(GpuArch::a10()),
                DeviceSpec::cost_model(GpuArch::h800()),
            ],
            runtime(),
        ),
    );
}
