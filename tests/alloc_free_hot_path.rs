//! Proves the acceptance criterion "no per-window heap allocation in the
//! steady-state hot path" by counting real allocator calls around
//! `InferenceEngine::step` after warm-up — around the closed-loop
//! reactor's per-tick `apply` + `observe` path, measured with its
//! mitigation engaged (the worst case: alert bookkeeping plus command
//! gating on every tick) — and around the **pooled** reactor tick
//! (gate apply → pool submit → flush drain → decision routing), where
//! the counting allocator also observes the shard worker thread — and
//! around a socket round trip through the ingress server, where it
//! observes the client and the event loop that scores the frame.
//!
//! This file must contain exactly one test: the counting allocator is
//! process-global, and a concurrently running test would pollute the count.

use context_monitor::serve::{Decision, ServeConfig, ShardedMonitorPool};
use context_monitor::{ContextMode, InferenceEngine, MonitorConfig, Precision, TrainedPipeline};
use gestures::Task;
use ingress::client::{Connection, ServerMsg};
use ingress::server::{IngressServer, ServerConfig};
use jigsaws::{generate, GeneratorConfig};
use kinematics::{FeatureSet, Vec3};
use raven_sim::{ArmCommand, CommandFilter, Commands};
use reactor::{MitigationPolicy, PooledReactor, ReactorConfig, SafetyReactor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

// SAFETY: every method forwards to the `System` allocator with arguments
// unchanged; the counter update has no effect on the returned memory, so
// `System`'s GlobalAlloc guarantees carry over verbatim.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: see the impl-level comment — pure pass-through to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarding the caller's layout unchanged to the system
        // allocator upholds the same contract we were called under.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: see the impl-level comment — pure pass-through to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` came from our `alloc`, which forwarded to
        // `System`, so they are valid for `System.dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: see the impl-level comment — pure pass-through to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` came from our `alloc` (backed by `System`),
        // and `new_size` is forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_monitor_push_performs_no_heap_allocation() {
    // Part 0: the kernel layer itself. Backend resolution (env read +
    // dispatch-table install) and the 64-byte-aligned packing scratch both
    // allocate only on first use; a warmed GEMM call must not touch the
    // allocator on any backend this host offers.
    let label = nn::kernels::gemm_backend_label(); // resolves dispatch now
    let mut backends = vec![nn::GemmIsa::Scalar];
    backends.extend(nn::kernels::simd_isa());
    // Pipeline shapes plus one n > NC product so the packed-panel path
    // (scratch growth) is warmed and measured too.
    let shapes = [(15usize, 38usize, 192usize), (6, 40, 600)];
    let mut scratch = nn::GemmScratch::default();
    let max = |f: &dyn Fn(&(usize, usize, usize)) -> usize| shapes.iter().map(f).max().unwrap();
    let a = vec![0.5f32; max(&|&(m, k, _)| m * k)];
    let b = vec![0.25f32; max(&|&(_, k, n)| k * n)];
    let bt = vec![0.25f32; max(&|&(_, k, n)| n * k)];
    let at = vec![0.5f32; max(&|&(m, k, _)| k * m)];
    let mut out = vec![0.0f32; max(&|&(m, _, n)| m * n)];
    let mut kernel_pass = || {
        for &isa in &backends {
            for &(m, k, n) in &shapes {
                nn::kernels::gemm_ab_with(
                    isa,
                    m,
                    k,
                    n,
                    &a[..m * k],
                    &b[..k * n],
                    &mut out[..m * n],
                    &mut scratch,
                );
                nn::kernels::gemm_abt_with(
                    isa,
                    m,
                    k,
                    n,
                    &a[..m * k],
                    &bt[..n * k],
                    &mut out[..m * n],
                    &mut scratch,
                );
                nn::kernels::gemm_atb_with(
                    isa,
                    m,
                    k,
                    n,
                    &at[..k * m],
                    &b[..k * n],
                    &mut out[..m * n],
                    &mut scratch,
                );
            }
        }
    };
    kernel_pass(); // warm-up: scratch high-water mark + dispatch resolution
    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    kernel_pass();
    COUNTING.store(false, Ordering::SeqCst);
    let kernel_allocs = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        kernel_allocs, 0,
        "warmed GEMM calls (backend {label}) allocated {kernel_allocs} times"
    );

    let ds = generate(&GeneratorConfig::fast(Task::Suturing).with_seed(17));
    let mut cfg = MonitorConfig::fast(FeatureSet::CRG).with_seed(9);
    cfg.train.epochs = 2;
    cfg.train_stride = 6;
    let idx: Vec<usize> = (0..ds.len()).collect();
    let pipeline = TrainedPipeline::train(&ds, &idx, &cfg);

    // Inference scratch lives in the engine (not the shared networks) since
    // the sharded-serving refactor, and the error classifiers share one
    // architecture, so the engine warm-up below sizes every buffer the
    // measured phase can touch — even when routing switches classifiers
    // mid-stream, the scratch shapes are identical and nothing reallocates.
    let demo = &ds.demos[0];
    let warm = cfg.window.width.max(cfg.gesture_window);
    let measured = 64usize;
    assert!(demo.len() > warm + 2 * measured, "demo too short for a steady-state measurement");

    let mut engine = InferenceEngine::new(&pipeline, ContextMode::Predicted);
    // Warm-up: fill the windows, the smoothing filter, and every scratch
    // buffer along the per-frame path.
    for frame in demo.frames.iter().take(warm + measured) {
        let _ = engine.step(&pipeline, frame);
    }

    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let mut emitted = 0usize;
    let mut score_acc = 0.0f32;
    for frame in demo.frames.iter().skip(warm + measured).take(measured) {
        if let Ok(Some((_, score))) = engine.step(&pipeline, frame).map(|s| s.complete()) {
            emitted += 1;
            score_acc += score;
        }
    }
    COUNTING.store(false, Ordering::SeqCst);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(emitted, measured, "monitor should be warm throughout");
    assert!(score_acc.is_finite());
    assert_eq!(
        allocations, 0,
        "steady-state push allocated {allocations} times over {measured} frames"
    );

    // Part 2: the closed-loop reactor's per-tick path. A threshold of 1e-6
    // alerts on every warm frame, so by the end of warm-up the mitigation
    // has engaged and the measured phase covers the full worst case:
    // engine step + alert bookkeeping + gated command stream.
    let pipeline = Arc::new(pipeline);
    let mut reactor = SafetyReactor::new(
        Arc::clone(&pipeline),
        ReactorConfig {
            threshold: 1e-6,
            policy: MitigationPolicy::StopAndHold,
            ..ReactorConfig::default()
        },
    );
    // A moving setpoint, so a gated tick is distinguishable from a
    // pass-through tick (the hold freezes an *earlier* plan point).
    let plan = |p: f32| {
        let arm = ArmCommand {
            position: Vec3::new(10.0 * p, -5.0 * p, 20.0),
            grasper: 0.12,
            euler: (0.0, 0.0, 0.0),
        };
        Commands { arms: [arm, arm] }
    };
    let n = demo.len() as f32 - 1.0;
    for (t, frame) in demo.frames.iter().enumerate().take(warm + measured) {
        let mut cmds = plan(t as f32 / n);
        reactor.apply(t, t as f32 / n, &mut cmds);
        reactor.observe(t, frame);
    }
    assert!(reactor.engaged_tick().is_some(), "mitigation must be engaged before measuring");
    assert!(reactor.ticks_gated() > 0);

    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let mut gated = 0usize;
    for (t, frame) in demo.frames.iter().enumerate().skip(warm + measured).take(measured) {
        let mut cmds = plan(t as f32 / n);
        reactor.apply(t, t as f32 / n, &mut cmds);
        reactor.observe(t, frame);
        gated += (cmds != plan(t as f32 / n)) as usize;
    }
    COUNTING.store(false, Ordering::SeqCst);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(gated, measured, "stop-and-hold should gate every measured tick");
    assert_eq!(
        allocations, 0,
        "steady-state reactor tick allocated {allocations} times over {measured} ticks"
    );

    // Part 3: the pooled reactor tick — the fleet deployment shape. Each
    // tick: gate apply (mitigation engaged, worst case) → pool submit
    // (recycled frame buffer) → flush drain into a reused buffer →
    // decision routing into the gate. The allocator is process-global, so
    // the shard worker's micro-batched forward pass is measured too; the
    // whole loop must be allocation-free once warm.
    let mut pool = ShardedMonitorPool::with_sessions(
        Arc::clone(&pipeline),
        ContextMode::Predicted,
        ServeConfig { workers: 1, threshold: 0.5, precision: Precision::F32 },
        1,
    );
    let mut gate = PooledReactor::new(ReactorConfig {
        threshold: 1e-6,
        policy: MitigationPolicy::StopAndHold,
        ..ReactorConfig::default()
    })
    .expect("valid config");
    let mut decisions: Vec<Decision> = Vec::new();
    let mut tick = |t: usize, gate: &mut PooledReactor, pool: &mut ShardedMonitorPool| {
        let mut cmds = plan(t as f32 / n);
        gate.apply(t, t as f32 / n, &mut cmds);
        pool.submit(0, &demo.frames[t]).expect("Predicted mode");
        decisions.clear();
        pool.flush_into(&mut decisions);
        for d in &decisions {
            gate.on_decision(d);
        }
        cmds
    };
    for t in 0..warm + measured {
        let _ = tick(t, &mut gate, &mut pool);
    }
    assert!(gate.gate().engaged_tick().is_some(), "mitigation engaged before measuring");
    assert_eq!(gate.deadline_misses(), 0, "barrier drain never misses");

    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let mut gated = 0usize;
    for t in warm + measured..warm + 2 * measured {
        let cmds = tick(t, &mut gate, &mut pool);
        gated += (cmds != plan(t as f32 / n)) as usize;
    }
    COUNTING.store(false, Ordering::SeqCst);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(gated, measured, "pooled stop-and-hold should gate every measured tick");
    assert_eq!(
        allocations, 0,
        "steady-state pooled reactor tick allocated {allocations} times over {measured} ticks"
    );

    // Part 4: the quantized tier. The same pooled loop on Precision::Int8 —
    // per-tick activation quantization, i8 im2col patches, and i32
    // accumulators all live in high-water QuantScratch buffers, so the warm
    // int8 path must be exactly as allocation-free as f32.
    drop(pool);
    drop(reactor);
    let mut pipeline = Arc::try_unwrap(pipeline).ok().expect("pool workers joined");
    pipeline.quantize(&ds, &idx).expect("built-in specs are quantizable");
    let pipeline = Arc::new(pipeline);
    let mut pool = ShardedMonitorPool::with_sessions(
        Arc::clone(&pipeline),
        ContextMode::Predicted,
        ServeConfig { workers: 1, threshold: 0.5, precision: Precision::Int8 },
        1,
    );
    let mut q_tick = |t: usize, pool: &mut ShardedMonitorPool| {
        pool.submit(0, &demo.frames[t]).expect("Predicted mode");
        decisions.clear();
        pool.flush_into(&mut decisions);
        decisions.iter().filter(|d| d.output.is_some()).count()
    };
    for t in 0..warm + measured {
        let _ = q_tick(t, &mut pool);
    }

    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let mut emitted = 0usize;
    for t in warm + measured..warm + 2 * measured {
        emitted += q_tick(t, &mut pool);
    }
    COUNTING.store(false, Ordering::SeqCst);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(emitted, measured, "int8 pool should be warm throughout");
    assert_eq!(
        allocations, 0,
        "steady-state int8 pooled tick allocated {allocations} times over {measured} ticks"
    );

    // Part 5: the wire. One closed-loop round trip per frame through a real
    // socket: client encode + send, the ingress event loop's read → decode
    // → tick (the engine step, on the loop's own thread; there is no shard
    // thread) → encode → write, and the client's read + decode. The
    // allocator counts the client and loop threads alike, so the whole
    // round trip must be allocation-free once warm.
    drop(pool);
    let server = IngressServer::start(
        Arc::clone(&pipeline),
        ServerConfig {
            serve: ServeConfig { workers: 1, threshold: 0.5, precision: Precision::Int8 },
            ..ServerConfig::default()
        },
    )
    .expect("bind ingress server");
    let mut conn = Connection::connect(server.local_addr()).expect("connect");
    // A lost wakeup in the event loop fails a receive instead of hanging.
    conn.set_read_timeout(Some(std::time::Duration::from_secs(10))).expect("read timeout");
    conn.send_hello(false).expect("hello");
    assert!(matches!(conn.recv().expect("welcome"), ServerMsg::Welcome { .. }));
    let round_trip = |t: usize, conn: &mut Connection| {
        conn.send_frame(t as u32, None, &demo.frames[t]).expect("frame");
        match conn.recv().expect("decision") {
            ServerMsg::Decision(d) => d.warm,
            other => panic!("expected DECISION, got {other:?}"),
        }
    };
    for t in 0..warm + measured {
        round_trip(t, &mut conn);
    }

    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let mut emitted = 0usize;
    for t in warm + measured..warm + 2 * measured {
        emitted += round_trip(t, &mut conn) as usize;
    }
    COUNTING.store(false, Ordering::SeqCst);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(emitted, measured, "wire session should be warm throughout");
    assert_eq!(
        allocations, 0,
        "steady-state socket round trip allocated {allocations} times over {measured} frames"
    );
}
