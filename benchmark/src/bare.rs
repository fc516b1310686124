//! The workloads that call a solver directly: `cavity3d-serial`,
//! `cavity3d-tuned` and `taylor-green2d`, and the core layer's ladder.

use crate::checks::{self, mass_of, state_ok, REFERENCE_N, REFERENCE_STEPS};
use crate::host;
use crate::inputs::{noisy_density, taylor_green_case, CAVITY_TAU, CAVITY_U};
use crate::run::{ctx, Ctx, Layers, Pass};
use crate::stats::{median, timing};
use crate::surface::{
    set_lane_policy, BgkParams, CaseSolver, GridDims, LanePolicy, Lattice, PopField, Recorder,
    Solver, SolverBuilder, StorageScheme, ThreadPool, D2Q9, D3Q19,
};
use std::time::Instant;

/// Fewest timed windows of a run, and the window count of a smoke run; every
/// rate is taken from the median window.
pub const MIN_WINDOWS: u64 = 3;

/// One way of running the cavity on one `Solver<D3Q19>`.
pub struct CavityConfig {
    pub name: &'static str,
    configure: fn(SolverBuilder<D3Q19>) -> SolverBuilder<D3Q19>,
    lane: LanePolicy,
    /// Computed bytes moved per lattice update: 3 x 19 x 8 for AB, 2 x 19 x 8
    /// for in-place AA, divided by the temporal-blocking depth.
    bytes_per_lup: f64,
    pub threads: usize,
    /// Steps per timed window (per ladder row, the row's timed steps).
    steps: u64,
}

const AB_BYTES: f64 = 456.0;
const AA_BYTES: f64 = 304.0;

pub const SERIAL: CavityConfig = CavityConfig {
    name: "builder defaults (AB, k=1, 1 thread)",
    configure: |b| b,
    lane: LanePolicy::Auto,
    bytes_per_lup: AB_BYTES,
    threads: 1,
    steps: 4,
};

pub const TUNED: CavityConfig = CavityConfig {
    name: "StorageScheme::Aa, time_block(2), ThreadPool::new(2)",
    configure: |b| {
        b.storage(StorageScheme::Aa)
            .time_block(2)
            .pool(ThreadPool::new(2))
    },
    lane: LanePolicy::Auto,
    bytes_per_lup: AA_BYTES / 2.0,
    threads: 2,
    steps: 14,
};

/// One solver on two pool threads at the ranks workload's scheme and depth.
pub const AB_K2_POOL2: CavityConfig = CavityConfig {
    name: "AB, k=2, 2 threads",
    configure: |b| b.time_block(2).pool(ThreadPool::new(2)),
    lane: LanePolicy::Auto,
    bytes_per_lup: AB_BYTES / 2.0,
    threads: 2,
    steps: 16,
};

/// The ladder: each row adds one optimisation to the row above.
const LADDER_SERIAL: [(&str, &str, CavityConfig); 3] = [
    (
        "core.ladder.scalar.mlups",
        "core.ladder.scalar.roofline_fraction",
        CavityConfig {
            name: "mask-scalar lane, tile_z 0",
            configure: |b| b.pool(ThreadPool::new(1).with_tile_z(0)),
            lane: LanePolicy::ForceScalar,
            bytes_per_lup: AB_BYTES,
            threads: 1,
            steps: 8,
        },
    ),
    (
        "core.ladder.simd.mlups",
        "core.ladder.simd.roofline_fraction",
        CavityConfig {
            name: "auto lane, tile_z 0",
            configure: |b| b.pool(ThreadPool::new(1).with_tile_z(0)),
            lane: LanePolicy::Auto,
            bytes_per_lup: AB_BYTES,
            threads: 1,
            steps: 8,
        },
    ),
    (
        "core.ladder.tiled.mlups",
        "core.ladder.tiled.roofline_fraction",
        CavityConfig {
            name: "auto lane, tile_z 70",
            configure: |b| b.pool(ThreadPool::new(1).with_tile_z(70)),
            lane: LanePolicy::Auto,
            bytes_per_lup: AB_BYTES,
            threads: 1,
            steps: 8,
        },
    ),
];

const LADDER_TUNED: [(&str, &str, CavityConfig); 3] = [
    (
        "core.ladder.aa.mlups",
        "core.ladder.aa.roofline_fraction",
        CavityConfig {
            name: "AA, k=1, 1 thread",
            configure: |b| b.storage(StorageScheme::Aa),
            lane: LanePolicy::Auto,
            bytes_per_lup: AA_BYTES,
            threads: 1,
            steps: 8,
        },
    ),
    (
        "core.ladder.aa_k2.mlups",
        "core.ladder.aa_k2.roofline_fraction",
        CavityConfig {
            name: "AA, k=2, 1 thread",
            configure: |b| b.storage(StorageScheme::Aa).time_block(2),
            lane: LanePolicy::Auto,
            bytes_per_lup: AA_BYTES / 2.0,
            threads: 1,
            steps: 16,
        },
    ),
    (
        "core.ladder.aa_k2_pool2.mlups",
        "core.ladder.aa_k2_pool2.roofline_fraction",
        CavityConfig {
            name: "AA, k=2, 2 threads",
            configure: TUNED.configure,
            lane: LanePolicy::Auto,
            bytes_per_lup: AA_BYTES / 2.0,
            threads: 2,
            steps: 16,
        },
    ),
];

/// A built, painted, initialised solver and what building it cost.
pub struct Built<L: Lattice> {
    pub solver: Solver<L>,
    build_ms: f64,
    init_ms: f64,
}

pub fn build_cavity(cfg: &CavityConfig, n: usize, seed: u64, recorder: Recorder) -> Built<D3Q19> {
    let t0 = Instant::now();
    let builder = Solver::<D3Q19>::builder(GridDims::new(n, n, n), BgkParams::from_tau(CAVITY_TAU));
    let mut solver = (cfg.configure)(builder.recorder(recorder)).build();
    solver.flags_mut().set_box_walls();
    solver.flags_mut().paint_lid([CAVITY_U, 0.0, 0.0]);
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    solver.initialize_field(|x, y, z| (noisy_density(seed, x, y, z), [0.0; 3]));
    let init_ms = t1.elapsed().as_secs_f64() * 1e3;
    Built {
        solver,
        build_ms,
        init_ms,
    }
}

/// Run the configuration at 32^3 x 8 steps and hold it to the serial generic
/// reference.
fn check_cavity_reference(cfg: &CavityConfig, seed: u64) -> Result<(), String> {
    let mut s = build_cavity(cfg, REFERENCE_N, seed, Recorder::disabled()).solver;
    let init = s.canonical_populations().raw().to_vec();
    s.run(REFERENCE_STEPS);
    let got = s.canonical_populations();
    checks::require_reference::<D3Q19>(cfg.name, s.flags(), CAVITY_TAU, &init, got.raw())
}

/// What the timed windows of one solver produced.
struct Windows {
    secs: Vec<f64>,
    /// Wall time of every `try_block` call (one step, or `k` when blocked).
    call_ms: Vec<f64>,
    failed: u64,
}

/// Windows of `steps` steps for as long as the run measures, each followed by
/// the finite-and-mass check (outside the timed region).
fn run_windows<L: Lattice>(s: &mut Solver<L>, steps: u64, mass0: f64, cx: &Ctx) -> Windows {
    let per_call = s.time_block() as u64;
    let mut out = Windows {
        secs: Vec::new(),
        call_ms: Vec::new(),
        failed: 0,
    };
    let stop = cx.scale.stop(1.0, MIN_WINDOWS);
    for w in 0.. {
        if stop.reached(w) {
            break;
        }
        let span = cx.tracer.open("window", w, None);
        let t0 = Instant::now();
        let mut stepped = true;
        for _ in 0..steps / per_call {
            let (r, secs) = cx.tracer.time("core.try_block", w, span, || s.try_block());
            out.call_ms.push(secs * 1e3);
            stepped &= r.is_ok();
        }
        out.secs.push(t0.elapsed().as_secs_f64());
        cx.tracer.close(span);
        let ((non_finite, mass), _) = cx.tracer.time("check.mass", w, None, || mass_of(s));
        if !(stepped && state_ok(non_finite, mass, mass0)) {
            out.failed += 1;
        }
    }
    out
}

fn pass_from(windows: &Windows, setup_s: f64, cells: usize, steps: u64) -> Pass {
    let window_s = median(&windows.secs);
    Pass {
        setup_s,
        attempted: windows.secs.len() as u64,
        failed: windows.failed,
        mlups: cells as f64 * steps as f64 / window_s / 1e6,
        jobs_per_s: 1.0 / window_s,
        latency_p50_ms: window_s * 1e3,
        op_s: window_s,
        notes: vec![format!(
            "an operation is one window of {steps} steps over {cells} cells; every rate is from the \
             median of the {} windows, which took {:.3?} s",
            windows.secs.len(),
            windows.secs
        )],
    }
}

/// Everything one cavity pass learns.
struct CavityPass {
    pass: Pass,
    windows: Windows,
    build_ms: f64,
    init_ms: f64,
    first_call_ms: f64,
    kernel_class: f64,
    lups: u64,
}

fn cavity_pass(cfg: &CavityConfig, cx: &Ctx) -> Result<CavityPass, String> {
    set_lane_policy(cfg.lane);
    let n = cx.scale.n3();
    let steps = cfg.steps;
    let (mut setups, mut builds, mut inits, mut firsts) = (vec![], vec![], vec![], vec![]);
    let mut last = None;
    for _ in 0..cx.setups {
        drop(last.take()); // one resident solver at a time, or peak RSS doubles
        let t0 = Instant::now();
        check_cavity_reference(cfg, cx.seed)?;
        let built = build_cavity(cfg, n, cx.seed, Recorder::disabled());
        let mut s = built.solver;
        let (non_finite, mass0) = mass_of(&s);
        // Warm-up: the first call also builds the interior index.
        let t1 = Instant::now();
        s.try_block().map_err(ctx("warm-up"))?;
        firsts.push(t1.elapsed().as_secs_f64() * 1e3);
        s.try_block().map_err(ctx("warm-up"))?;
        setups.push(t0.elapsed().as_secs_f64());
        builds.push(built.build_ms);
        inits.push(built.init_ms);
        if non_finite {
            return Err("initial state is not finite".into());
        }
        last = Some((s, mass0));
    }
    let (mut s, mass0) = last.expect("setups >= 1");
    let windows = run_windows(&mut s, steps, mass0, cx);
    set_lane_policy(LanePolicy::Auto);
    let cells = s.dims().cells();
    Ok(CavityPass {
        pass: pass_from(&windows, median(&setups), cells, steps),
        build_ms: median(&builds),
        init_ms: median(&inits),
        first_call_ms: median(&firsts),
        kernel_class: s.last_kernel_class().as_gauge(),
        lups: cells as u64 * steps,
        windows,
    })
}

pub fn measure_cavity(cfg: &CavityConfig, cx: &Ctx) -> Result<Pass, String> {
    let mut pass = cavity_pass(cfg, cx)?.pass;
    pass.notes.push(format!("config: {}", cfg.name));
    Ok(pass)
}

/// MLUPS of one ladder row: a fresh solver, two warm-up calls, then the
/// median of the row's timed calls.
pub fn ladder_row(cfg: &CavityConfig, cx: &Ctx) -> Result<f64, String> {
    set_lane_policy(cfg.lane);
    let mut s = build_cavity(cfg, cx.scale.n3(), cx.seed, Recorder::disabled()).solver;
    let per_call = s.time_block() as u64;
    for _ in 0..2 {
        s.try_block().map_err(ctx("ladder warm-up"))?;
    }
    let mut call_s = Vec::new();
    for _ in 0..cfg.steps / per_call {
        let t0 = Instant::now();
        s.try_block().map_err(ctx("ladder row"))?;
        call_s.push(t0.elapsed().as_secs_f64());
    }
    set_lane_policy(LanePolicy::Auto);
    let (non_finite, _) = mass_of(&s);
    if non_finite {
        return Err(format!("ladder row `{}` diverged", cfg.name));
    }
    Ok(s.dims().cells() as f64 * per_call as f64 / median(&call_s) / 1e6)
}

fn ladder(
    rows: &[(&'static str, &'static str, CavityConfig)],
    cx: &Ctx,
    out: &mut Layers,
) -> Result<(f64, f64), String> {
    let array = host::triad_array_bytes(cx.scale.smoke);
    let (triad_1t, triad_2t) = host::triad_gb_s(array);
    for (mlups_name, fraction_name, cfg) in rows {
        let mlups = ladder_row(cfg, cx)?;
        let ceiling = if cfg.threads > 1 { triad_2t } else { triad_1t };
        out.put_noted(mlups_name, mlups, cfg.name);
        out.put_noted(
            fraction_name,
            mlups * cfg.bytes_per_lup / (ceiling * 1e3),
            format!(
                "{} computed B/LUP over the {}-thread triad",
                cfg.bytes_per_lup, cfg.threads
            ),
        );
    }
    Ok((triad_1t, triad_2t))
}

pub fn layers_serial(cx: &Ctx) -> Result<(Pass, Layers), String> {
    let p = cavity_pass(&SERIAL, cx)?;
    let mut out = Layers::default();
    let (triad_1t, triad_2t) = ladder(&LADDER_SERIAL, cx, &mut out)?;
    let array = host::triad_array_bytes(cx.scale.smoke);
    let sizes = format!(
        "3 arrays of {} MiB, LLC {} MiB",
        array >> 20,
        host::llc_bytes().map_or(0, |b| b >> 20)
    );
    out.put_noted("host.triad_gb_s", triad_1t, sizes.clone());
    out.put_noted("host.triad_2t_gb_s", triad_2t, sizes);
    let calls = timing(&p.windows.call_ms, 90.0);
    let note = format!("n={} tail=p{:.1}", calls.n, calls.tail_pct);
    out.put_noted("core.step_ms_p50", calls.p50, note.clone());
    out.put_noted("core.step_ms_p90", calls.tail, note);
    out.put("core.first_step_extra_ms", p.first_call_ms - calls.p50);
    out.put("core.build_ms", p.build_ms);
    out.put("core.init_ms", p.init_ms);
    out.put_noted(
        "core.kernel_class",
        p.kernel_class,
        "0 generic, 1 scalar, 2 simd",
    );
    let s = build_cavity(&SERIAL, cx.scale.n3(), cx.seed, Recorder::disabled()).solver;
    let ms: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(s.macroscopic().has_non_finite());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.put("core.macroscopic_ms", median(&ms));
    out.put_noted(
        "core.lups",
        p.lups as f64,
        "exact; lattice updates of one timed window",
    );
    Ok((p.pass, out))
}

pub fn layers_tuned(cx: &Ctx) -> Result<(Pass, Layers), String> {
    let p = cavity_pass(&TUNED, cx)?;
    let mut out = Layers::default();
    ladder(&LADDER_TUNED, cx, &mut out)?;
    let one = out
        .get("core.ladder.aa_k2.mlups")
        .expect("row just measured");
    let two = out
        .get("core.ladder.aa_k2_pool2.mlups")
        .expect("row just measured");
    out.put_noted(
        "core.pool_efficiency",
        two / (2.0 * one),
        "2 threads over 2 x 1 thread",
    );
    // Canonicalising an AA grid copies and un-reverses it; AB borrows.
    let s = build_cavity(&TUNED, cx.scale.n3(), cx.seed, Recorder::disabled()).solver;
    let ms: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(s.canonical_populations().raw().len());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.put("core.canonical_ms", median(&ms));
    Ok((p.pass, out))
}

/// Steps per Taylor-Green window.
const TG_STEPS: u64 = 45;

struct TgPass {
    pass: Pass,
    call_ms: Vec<f64>,
}

fn tg_pass(cx: &Ctx) -> Result<TgPass, String> {
    let spec = taylor_green_case(cx.scale.n2());
    let steps = TG_STEPS;
    let build = |n: usize| -> Result<Solver<D2Q9>, String> {
        let case = taylor_green_case(n);
        match case.build(ThreadPool::new(1), Recorder::disabled()) {
            Ok(CaseSolver::D2(s)) => Ok(s),
            Ok(_) => Err("a D2Q9 case built a non-D2 solver".into()),
            Err(e) => Err(format!("build taylor-green: {e}")),
        }
    };
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..cx.setups {
        drop(last.take());
        let t0 = Instant::now();
        let mut small = build(REFERENCE_N)?;
        let init = small.canonical_populations().raw().to_vec();
        small.run(REFERENCE_STEPS);
        let got = small.canonical_populations();
        checks::require_reference::<D2Q9>(
            "taylor-green2d",
            small.flags(),
            spec.tau,
            &init,
            got.raw(),
        )?;
        let mut s = build(spec.nx)?;
        let energy0 = s.stats().kinetic_energy;
        let (_, mass0) = mass_of(&s);
        for _ in 0..2 {
            s.try_step().map_err(ctx("warm-up"))?;
        }
        setups.push(t0.elapsed().as_secs_f64());
        last = Some((s, mass0, energy0));
    }
    let (mut s, mass0, energy0) = last.expect("setups >= 1");
    let windows = run_windows(&mut s, steps, mass0, cx);
    // Physics: the vortex energy decays as exp(-4 nu k^2 t).
    let nu = BgkParams::from_tau(spec.tau).viscosity();
    let k = std::f64::consts::TAU / spec.nx as f64;
    let analytic = (-4.0 * nu * k * k * s.step_count() as f64).exp();
    let measured = s.stats().kinetic_energy / energy0;
    if ((measured - analytic) / analytic).abs() > 0.02 {
        return Err(format!(
            "taylor-green energy ratio {measured} after {} steps, analytic {analytic}: off by more than 2 %",
            s.step_count()
        ));
    }
    let mut pass = pass_from(&windows, median(&setups), s.dims().cells(), steps);
    pass.notes.push(format!(
        "config: {spec:?}; energy ratio {measured:.6} vs analytic {analytic:.6}"
    ));
    Ok(TgPass {
        pass,
        call_ms: windows.call_ms,
    })
}

pub fn measure_tg(cx: &Ctx) -> Result<Pass, String> {
    Ok(tg_pass(cx)?.pass)
}

pub fn layers_tg(cx: &Ctx) -> Result<(Pass, Layers), String> {
    let p = tg_pass(cx)?;
    let mut out = Layers::default();
    out.put_noted(
        "core.generic_step_ms_p50",
        median(&p.call_ms),
        format!("n={}", p.call_ms.len()),
    );
    Ok((p.pass, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Scale;
    use crate::trace::Tracer;

    #[test]
    fn a_poisoned_field_is_a_failed_operation() {
        let _lane = checks::LANE_LOCK.lock();
        let tracer = Tracer::new(false);
        let cx = Ctx {
            seed: 1,
            scale: Scale {
                smoke: true,
                seconds: 1.0,
            },
            tracer: &tracer,
            setups: 1,
            tmp: &std::env::temp_dir(),
        };
        let mut s = build_cavity(&SERIAL, 12, 1, Recorder::disabled()).solver;
        let (_, mass0) = mass_of(&s);
        let clean = run_windows(&mut s, 2, mass0, &cx);
        assert_eq!(clean.failed, 0);

        let centre = s.dims().idx(6, 6, 6);
        s.state_mut().set(centre, 0, f64::NAN);
        let poisoned = run_windows(&mut s, 2, mass0, &cx);
        assert_eq!(poisoned.failed, MIN_WINDOWS);
        let pass = pass_from(&poisoned, 0.0, s.dims().cells(), 2);
        assert_ne!(crate::exit_code(&pass), 0);
    }

    #[test]
    fn every_cavity_configuration_matches_the_reference() {
        let _lane = checks::LANE_LOCK.lock();
        for cfg in [&SERIAL, &TUNED]
            .into_iter()
            .chain(LADDER_SERIAL.iter().map(|r| &r.2))
            .chain(LADDER_TUNED.iter().map(|r| &r.2))
        {
            set_lane_policy(cfg.lane);
            check_cavity_reference(cfg, 5).unwrap();
        }
        set_lane_policy(LanePolicy::Auto);
    }
}
