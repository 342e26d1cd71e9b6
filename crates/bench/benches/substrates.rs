//! Criterion benches for the substrate systems: simulator stepping, the
//! vision pipeline, DTW, KDE, and raw layer forward passes.

use criterion::{criterion_group, criterion_main, Criterion};
use eval::{dtw_1d, GaussianKde};
use nn::layers::{LayerSpec, Padding};
use nn::{Mat, Network, NetworkSpec};
use raven_sim::{run_block_transfer, NoFaults, SimConfig};
use std::hint::black_box;
use vision::{ssim, VirtualCamera};

fn bench_simulator(c: &mut Criterion) {
    c.bench_function("raven_sim_trial_400_ticks", |b| {
        let cfg = SimConfig { hz: 100.0, duration_s: 4.0, seed: 3, tremor: 0.3 };
        b.iter(|| black_box(run_block_transfer(black_box(&cfg), &mut NoFaults)))
    });
}

fn bench_vision(c: &mut Criterion) {
    let cam = VirtualCamera::default();
    let block = kinematics::Vec3::new(10.0, 0.0, 8.0);
    let receptacle = kinematics::Vec3::new(-50.0, 30.0, 0.0);
    let arms = [kinematics::Vec3::new(12.0, 0.0, 12.0)];
    let a = cam.render(block, receptacle, &arms);
    let b2 = cam.render(kinematics::Vec3::new(11.0, 0.0, 7.0), receptacle, &arms);

    c.bench_function("camera_render_96x64", |b| {
        b.iter(|| black_box(cam.render(black_box(block), receptacle, &arms)))
    });
    c.bench_function("ssim_96x64", |bch| bch.iter(|| black_box(ssim(&a, &b2))));
    c.bench_function("contour_track_96x64", |bch| {
        bch.iter(|| black_box(vision::track_brightest(&a, 200)))
    });
}

fn bench_metrics(c: &mut Criterion) {
    let a: Vec<f32> = (0..240).map(|i| (i as f32 * 0.1).sin()).collect();
    let b: Vec<f32> = (0..240).map(|i| (i as f32 * 0.1 + 0.4).sin()).collect();
    c.bench_function("dtw_240x240", |bench| {
        bench.iter(|| black_box(dtw_1d(black_box(&a), black_box(&b), None)))
    });

    let pts: Vec<Vec<f32>> =
        (0..200).map(|i| vec![(i as f32 * 0.37).sin(), (i as f32 * 0.11).cos()]).collect();
    let kde = GaussianKde::fit(&pts).unwrap();
    c.bench_function("kde_pdf_200pts_2d", |bench| {
        bench.iter(|| black_box(kde.pdf(black_box(&[0.3, -0.2]))))
    });
}

fn bench_layers(c: &mut Criterion) {
    let x = Mat::full(5, 38, 0.3);
    let mut lstm = Network::new(
        NetworkSpec::new(vec![
            LayerSpec::Lstm { in_dim: 38, hidden: 64, return_sequences: true },
            LayerSpec::Lstm { in_dim: 64, hidden: 32, return_sequences: false },
        ]),
        1,
    );
    c.bench_function("stacked_lstm_64_32_forward_w5", |b| {
        b.iter(|| black_box(lstm.forward(black_box(&x))))
    });

    let mut conv = Network::new(
        NetworkSpec::new(vec![
            LayerSpec::Conv1d {
                in_channels: 38,
                out_channels: 32,
                kernel: 3,
                padding: Padding::Same,
            },
            LayerSpec::Relu,
            LayerSpec::GlobalMaxPool,
            LayerSpec::Dense { in_dim: 32, out_dim: 2 },
        ]),
        1,
    );
    let x10 = Mat::full(10, 38, 0.3);
    c.bench_function("conv1d_head_forward_w10", |b| {
        b.iter(|| black_box(conv.forward(black_box(&x10))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_simulator, bench_vision, bench_metrics, bench_layers
}
criterion_main!(benches);
