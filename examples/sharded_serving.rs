//! Sharded serving: one wide CNN layer, many macro instances.
//!
//! The paper's macro is a fixed-width tile (`Ndec` decoder chains), so a
//! layer with more kernels than `Ndec` either takes `tiles_out` serial
//! passes through one macro — or one pass through `tiles_out` macros in
//! parallel. This example walks the second path end to end:
//!
//! 1. tile a wide convolution layer with `ConvMapping::sharded`,
//! 2. derive the matching (ragged) `ShardPlan`, build a `ShardedBackend`
//!    on it, and serve it through a `Session`,
//! 3. check the fleet's stitched outputs are bit-identical to one wide
//!    macro, and
//! 4. shard the event-driven netlist itself — via the
//!    `BackendKind::Sharded` even-split shortcut — to see the latency
//!    (max) and energy (sum) aggregation.
//!
//! Run with: `cargo run --example sharded_serving --release`

use maddpipe::prelude::*;

fn main() {
    // ── 1. A layer wider than the macro ────────────────────────────────
    // 37 kernels on a 16-chain macro: 3 output tiles, the last ragged.
    let macro_cfg = MacroConfig::paper_flagship(); // Ndec = 16, NS = 32
    let layer = ConvShape::new(32, 37, 8, 8);
    let single = ConvMapping::new(layer, &macro_cfg);
    println!("layer:        {layer}");
    println!("single macro: {single}");
    for (sub, m) in ConvMapping::sharded(layer, &macro_cfg) {
        println!("  shard {sub} -> {m}");
    }

    // ── 2. Serve the wide program on a macro fleet ─────────────────────
    // The configuration is the *wide* layer (37 chains); the layer plan
    // [16, 16, 5] keeps each shard within one physical macro's Ndec, and
    // `ShardedBackend::new` executes exactly that (ragged) partition.
    // (`BackendKind::Sharded { shards, .. }` is the builder shortcut for
    // an *even* `ShardPlan::even(cfg.ndec, shards)` split instead.)
    let plan = ShardPlan::for_layer(&layer, &macro_cfg);
    println!("\nshard plan:   {plan}");
    let wide_cfg = MacroConfig::new(layer.out_channels, 4); // 4 stages for brevity
    let program = MacroProgram::random(wide_cfg.ndec, wide_cfg.ns, 42);
    let kinds = vec![BackendKind::Functional { workers: 1 }; plan.shards()];
    let backend = ShardedBackend::new(&wide_cfg, &program, plan.clone(), &kinds)
        .expect("wide program fits the layer plan");
    let mut fleet = Session::from_backend(wide_cfg.clone(), Box::new(backend));
    let batch = TokenBatch::random(wide_cfg.ns, 256, 7);
    let result = fleet.run(&batch).expect("batch completes");
    println!(
        "fleet of {} macros served {} tokens: {}",
        plan.shards(),
        batch.len(),
        fleet.stats()
    );

    // ── 3. Bit-identical to one wide macro ─────────────────────────────
    let mut wide = Session::builder(wide_cfg)
        .program(program)
        .backend(BackendKind::Functional { workers: 1 })
        .build()
        .expect("same program, same configuration");
    let reference = wide.run(&batch).expect("batch completes");
    assert_eq!(
        result.outputs(),
        reference.outputs(),
        "stitched shard outputs must match the unsplit macro bit for bit"
    );
    println!(
        "sharded outputs match the single wide macro on all {} tokens",
        batch.len()
    );

    // ── 4. Sharding the netlist itself ─────────────────────────────────
    // Each shard worker owns its own event-driven netlist; per-token
    // latency is the max over shards, energy the sum.
    let rtl_cfg = MacroConfig::new(4, 2).with_op(OperatingPoint::new(Volts(0.8), Corner::Ttg));
    let rtl_program = MacroProgram::random(rtl_cfg.ndec, rtl_cfg.ns, 9);
    let mut rtl_fleet = Session::builder(rtl_cfg)
        .program(rtl_program)
        .backend(BackendKind::Sharded {
            shards: 2,
            inner: Box::new(BackendKind::Rtl {
                fidelity: Fidelity::Sequential,
            }),
        })
        .build()
        .expect("program fits");
    let rtl_batch = TokenBatch::random(2, 8, 5);
    let rtl_result = rtl_fleet.run(&rtl_batch).expect("batch completes");
    println!(
        "\n2 RTL shards, 8 tokens: token 0 latency {} (max over shards), energy {} (sum)",
        rtl_result.tokens[0].latency.expect("RTL shards measure"),
        rtl_result.tokens[0].energy.expect("RTL shards measure"),
    );
    println!("session stats: {}", rtl_fleet.stats());
}
