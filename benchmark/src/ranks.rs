//! `cavity3d-ranks`: the cavity on a 2-rank world, and the comm and sim
//! layers' probes.

use crate::bare::{self, build_cavity, MIN_WINDOWS};
use crate::checks::{self, state_ok, REFERENCE_N, REFERENCE_STEPS};
use crate::inputs::{noisy_density, CAVITY_TAU, CAVITY_U};
use crate::run::{Ctx, Layers, Pass};
use crate::stats::median;
use crate::surface::{
    BgkParams, CollisionKind, Comm, DistributedSolver, ExchangeMode, FlagField, GridDims, Phase,
    PopField, Recorder, StorageScheme, SwlbError, World, D3Q19, PHASES,
};
use std::time::Instant;

/// Steps per timed window.
const STEPS: u64 = 6;
/// Share of the run's seconds a comparison pass (1 rank, k = 1) measures.
const PROBE_SHARE: f64 = 0.4;
const RANKS: usize = 2;
const DEPTH: usize = 2;

fn cavity_flags(n: usize) -> FlagField {
    let mut flags = FlagField::new(GridDims::new(n, n, n));
    flags.set_box_walls();
    flags.paint_lid([CAVITY_U, 0.0, 0.0]);
    flags
}

fn build_rank<'c>(
    comm: &'c Comm,
    flags: &FlagField,
    depth: usize,
    seed: u64,
    recorder: Recorder,
) -> DistributedSolver<'c, D3Q19> {
    let coll = CollisionKind::Bgk(BgkParams::from_tau(CAVITY_TAU));
    let mut s = DistributedSolver::<D3Q19>::builder(comm, flags.dims(), flags, coll)
        .exchange(ExchangeMode::OnTheFly)
        .storage(StorageScheme::Ab)
        .time_block(depth)
        .recorder(recorder)
        .build();
    s.initialize_with(|x, y, z| (noisy_density(seed, x, y, z), [0.0; 3]));
    s
}

/// Gathered 2-rank state after 8 steps at 32^3 against the serial generic
/// reference.
fn check_reference(ranks: usize, depth: usize, seed: u64) -> Result<(), String> {
    let serial = build_cavity(&bare::SERIAL, REFERENCE_N, seed, Recorder::disabled()).solver;
    let init = serial.canonical_populations().raw().to_vec();
    let flags = serial.flags();
    let gathered = World::new(ranks).run(|comm| -> Result<_, SwlbError> {
        let mut s = build_rank(&comm, flags, depth, seed, Recorder::disabled());
        s.run(REFERENCE_STEPS)?;
        Ok(s.gather_populations()?)
    });
    let got = gathered
        .into_iter()
        .next()
        .expect("rank 0 exists")
        .map_err(|e| format!("reference run on ranks: {e}"))?
        .ok_or("rank 0 gathered nothing")?;
    checks::require_reference::<D3Q19>("cavity3d-ranks", flags, CAVITY_TAU, &init, got.raw())
}

/// Whether any rank's state is non-finite, and the global mass.
fn global_state(s: &DistributedSolver<D3Q19>, comm: &Comm) -> Result<(bool, f64), SwlbError> {
    let bad = f64::from(s.local_macroscopic().has_non_finite());
    let any_bad = comm.allreduce_max(&[bad])?[0] > 0.0;
    Ok((any_bad, s.global_mass()?))
}

/// What one rank reports back from a pass.
struct RankOut {
    setup_s: f64,
    build_ms: f64,
    window_s: Vec<f64>,
    failed: u64,
    phase_ns: Vec<u64>,
    halo_messages: u64,
    halo_bytes: u64,
}

struct RanksPass {
    pass: Pass,
    build_ms: f64,
    /// Share of each `swlb-obs` phase in the summed phase time of all ranks;
    /// empty unless the recorder was enabled.
    phase_share: Vec<(Phase, f64)>,
    /// Halo traffic of all ranks in one timed window.
    halo_messages: u64,
    halo_bytes: u64,
}

/// One set-up and timed windows for `share` of the run's seconds on a
/// `ranks`-rank world. With `share == 0` only the set-up runs (for the set-up
/// median).
fn world_pass(
    ranks: usize,
    depth: usize,
    steps: u64,
    recorder_on: bool,
    share: f64,
    cx: &Ctx,
) -> Result<Vec<RankOut>, String> {
    let flags = cavity_flags(cx.scale.n3());
    let t_setup = Instant::now();
    let outs = World::new(ranks).run(|comm| -> Result<RankOut, SwlbError> {
        let recorder = if recorder_on {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        let t_build = Instant::now();
        let mut s = build_rank(&comm, &flags, depth, cx.seed, recorder.clone());
        let build_ms = t_build.elapsed().as_secs_f64() * 1e3;
        s.run(2 * depth as u64)?;
        let (_, mass0) = global_state(&s, &comm)?;
        comm.barrier();
        let mut out = RankOut {
            setup_s: t_setup.elapsed().as_secs_f64(),
            build_ms,
            window_s: Vec::new(),
            failed: 0,
            phase_ns: Vec::new(),
            halo_messages: 0,
            halo_bytes: 0,
        };
        let group = |w: u64| w * ranks as u64 + comm.rank() as u64;
        let stop = cx.scale.stop(share, MIN_WINDOWS);
        let before = (
            recorder.counter("halo.messages").get(),
            recorder.counter("halo.bytes").get(),
        );
        for w in 0.. {
            // Rank 0's clock decides for everyone, or the ranks would part ways.
            let over = f64::from(comm.rank() == 0 && (share == 0.0 || stop.reached(w)));
            if comm.allreduce_max(&[over])?[0] > 0.0 {
                break;
            }
            let span = cx.tracer.open("window", group(w), None);
            let t0 = Instant::now();
            let mut stepped = true;
            for _ in 0..steps {
                let (r, _) = cx.tracer.time("sim.step", group(w), span, || s.step());
                stepped &= r.is_ok();
            }
            comm.barrier();
            out.window_s.push(t0.elapsed().as_secs_f64());
            cx.tracer.close(span);
            let (non_finite, mass) = global_state(&s, &comm)?;
            if !(stepped && state_ok(non_finite, mass, mass0)) {
                out.failed += 1;
            }
        }
        if recorder_on {
            out.phase_ns = PHASES.iter().map(|&p| recorder.phase_ns(p)).collect();
            out.halo_messages = recorder.counter("halo.messages").get() - before.0;
            out.halo_bytes = recorder.counter("halo.bytes").get() - before.1;
        }
        Ok(out)
    });
    outs.into_iter()
        .map(|r| r.map_err(|e| format!("{ranks}-rank pass: {e}")))
        .collect()
}

fn ranks_pass(
    ranks: usize,
    depth: usize,
    steps: u64,
    recorder_on: bool,
    setups: usize,
    share: f64,
    cx: &Ctx,
) -> Result<RanksPass, String> {
    let mut setup_s = Vec::new();
    for _ in 1..setups {
        let t0 = Instant::now();
        check_reference(ranks, depth, cx.seed)?;
        world_pass(ranks, depth, steps, false, 0.0, cx)?;
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let t0 = Instant::now();
    check_reference(ranks, depth, cx.seed)?;
    let checked_s = t0.elapsed().as_secs_f64();
    let outs = world_pass(ranks, depth, steps, recorder_on, share, cx)?;
    setup_s.push(checked_s + outs[0].setup_s);

    // Every rank times the same barrier-to-barrier window; rank 0 speaks.
    let window_s = median(&outs[0].window_s);
    let windows = outs[0].window_s.len() as u64;
    let cells = cx.scale.n3().pow(3);
    let mut phase_ns = vec![0u64; PHASES.len()];
    for out in &outs {
        for (sum, ns) in phase_ns.iter_mut().zip(&out.phase_ns) {
            *sum += ns;
        }
    }
    let all_ns: u64 = phase_ns.iter().sum();
    Ok(RanksPass {
        pass: Pass {
            setup_s: median(&setup_s),
            attempted: windows,
            failed: outs[0].failed,
            mlups: cells as f64 * steps as f64 / window_s / 1e6,
            jobs_per_s: 1.0 / window_s,
            latency_p50_ms: window_s * 1e3,
            op_s: window_s,
            notes: vec![format!(
                "World::new({ranks}), OnTheFly, AB, time_block({depth}); an operation is one window of {steps} \
                 steps over {cells} cells; every rate is from the median of the {windows} windows, which took {:.3?} s",
                outs[0].window_s
            )],
        },
        build_ms: outs.iter().map(|o| o.build_ms).fold(0.0, f64::max),
        phase_share: PHASES
            .iter()
            .zip(&phase_ns)
            .filter(|_| all_ns > 0)
            .map(|(&p, &ns)| (p, ns as f64 / all_ns as f64))
            .collect(),
        halo_messages: outs.iter().map(|o| o.halo_messages).sum::<u64>() / windows,
        halo_bytes: outs.iter().map(|o| o.halo_bytes).sum::<u64>() / windows,
    })
}

pub fn measure(cx: &Ctx) -> Result<Pass, String> {
    Ok(ranks_pass(RANKS, DEPTH, STEPS, false, cx.setups, 1.0, cx)?.pass)
}

/// Microseconds per call of `op`, repeated `reps` times on a fresh 2-rank
/// world after `reps / 10` untimed calls; rank 0's clock. `op` gets a send
/// payload of `len` doubles and a receive buffer.
fn on_two_ranks(
    reps: usize,
    len: usize,
    op: impl Fn(&Comm, &[f64], &mut Vec<f64>) -> Result<(), SwlbError> + Sync,
) -> Result<f64, String> {
    let outs = World::new(2).run(|comm| -> Result<f64, SwlbError> {
        let payload = vec![1.0f64; len];
        let mut back = Vec::with_capacity(len);
        for _ in 0..reps / 10 {
            op(&comm, &payload, &mut back)?;
        }
        comm.barrier();
        let t0 = Instant::now();
        for _ in 0..reps {
            op(&comm, &payload, &mut back)?;
        }
        Ok(t0.elapsed().as_secs_f64() * 1e6 / reps as f64)
    });
    let rank0 = outs.into_iter().next().expect("rank 0 exists");
    rank0.map_err(|e| format!("comm probe: {e}"))
}

/// One round trip between rank 0 and rank 1 through the buffered
/// send/receive pair the halo exchange uses.
fn pingpong(comm: &Comm, payload: &[f64], back: &mut Vec<f64>) -> Result<(), SwlbError> {
    let peer = 1 - comm.rank();
    if comm.rank() == 0 {
        comm.send_buffered(peer, 7, payload)?;
        comm.recv_buffered(peer, 7, back)?;
    } else {
        comm.recv_buffered(peer, 7, back)?;
        comm.send_buffered(peer, 7, payload)?;
    }
    Ok(())
}

/// `base` is the untraced pass of the same work, already measured.
pub fn layers(cx: &Ctx, base: &Pass) -> Result<(Pass, Layers), String> {
    let steps = STEPS;
    let off = crate::trace::Tracer::new(false);
    let plain = cx.with_tracer(&off);
    // The same work twice more: recorder enabled, then recorder and spans.
    let observed = ranks_pass(RANKS, DEPTH, steps, true, 1, 1.0, &plain)?;
    let traced = ranks_pass(RANKS, DEPTH, steps, true, 1, 1.0, cx)?;
    let mut out = Layers::default();
    out.put(
        "obs.enabled_overhead_share",
        observed.pass.op_s / base.op_s - 1.0,
    );
    out.put("sim.build_ms", traced.build_ms);
    let per_window = format!("exact; all ranks, one window of {steps} steps");
    out.put_noted(
        "sim.halo_messages",
        traced.halo_messages as f64,
        per_window.clone(),
    );
    out.put_noted("sim.halo_bytes", traced.halo_bytes as f64, per_window);
    let share = |phase: Phase| {
        let found = traced.phase_share.iter().find(|(p, _)| *p == phase);
        found.map_or(0.0, |(_, s)| *s)
    };
    out.put("sim.halo_pack_share", share(Phase::HaloPack));
    out.put("sim.halo_exchange_share", share(Phase::HaloExchange));
    out.put("sim.halo_unpack_share", share(Phase::HaloUnpack));
    out.put("sim.boundary_share", share(Phase::Boundary));
    out.put("sim.collide_stream_share", share(Phase::CollideStream));

    let one_rank = ranks_pass(1, DEPTH, steps, false, 1, PROBE_SHARE, &plain)?;
    out.put_noted(
        "sim.rank_efficiency",
        base.mlups / (2.0 * one_rank.pass.mlups),
        "2 ranks over 2 x 1 rank, AB k=2",
    );
    out.put_noted(
        "sim.ranks_over_pool",
        base.mlups / bare::ladder_row(&bare::AB_K2_POOL2, &plain)?,
        "2 ranks over one solver on 2 pool threads, AB k=2",
    );

    let halo_len = (traced.halo_bytes / traced.halo_messages.max(1) / 8) as usize;
    let small = on_two_ranks(2000, 1, pingpong)?;
    let halo = on_two_ranks(200, halo_len, pingpong)?;
    out.put_noted("comm.pingpong_small_us", small, "round trip, 1 double");
    out.put_noted(
        "comm.pingpong_halo_us",
        halo,
        format!("round trip, {halo_len} doubles: the mean k=2 halo message"),
    );
    out.put_noted(
        "comm.halo_gb_s",
        2.0 * 8.0 * halo_len as f64 / (halo * 1e3),
        "one message each way per round trip",
    );
    let allreduce = on_two_ranks(2000, 1, |comm, payload, back| {
        *back = comm.allreduce_sum(payload)?;
        Ok(())
    })?;
    out.put("comm.allreduce_us", allreduce);
    let spawn_us: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            World::new(2).run(|comm| comm.rank());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.put_noted("comm.world_spawn_us", median(&spawn_us), "n=200");
    Ok((traced.pass, out))
}

/// MLUPS of the cavity on a 2-rank world at AB, k = 1: the distributed
/// figure the elastic slice is compared with.
pub fn plain_two_rank_mlups(cx: &Ctx) -> Result<f64, String> {
    Ok(ranks_pass(RANKS, 1, STEPS, false, 1, PROBE_SHARE, cx)?
        .pass
        .mlups)
}
