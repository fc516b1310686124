//! Property-based tests of the I/O layer: checkpoints round-trip for arbitrary
//! content and detect arbitrary corruption; images and probe logs behave for
//! arbitrary field values.

use proptest::prelude::*;
use swlb_core::geometry::GridDims;
use swlb_io::{
    colormap_jet, colormap_viridis_like, CheckpointChunk, ChunkMeta, ChunkedCheckpoint, PpmImage,
    ProbeLog,
};

/// An `nx × ny × nz`, `q`-population checkpoint cut into a `px × py` grid of
/// chunks (ragged last column/row), values drawn from `seed`.
fn tiled(
    step: u64,
    (nx, ny, nz): (u32, u32, u32),
    q: u32,
    (px, py): (u32, u32),
    scheme: u8,
    seed: u64,
) -> ChunkedCheckpoint {
    let cuts = |n: u32, parts: u32| -> Vec<(u32, u32)> {
        let parts = parts.min(n);
        let step = n.div_ceil(parts);
        (0..parts)
            .map(|i| (i * step, step.min(n.saturating_sub(i * step))))
            .filter(|&(_, len)| len > 0)
            .collect()
    };
    let mut chunks = Vec::new();
    for &(y0, lny) in &cuts(ny, py) {
        for &(x0, lnx) in &cuts(nx, px) {
            let len = (lnx * lny * nz * q) as usize;
            let salt = (x0 * 31 + y0 * 17) as f64;
            chunks.push(CheckpointChunk {
                meta: ChunkMeta { x0, y0, lnx, lny },
                data: (0..len)
                    .map(|i| ((seed as f64 + salt + i as f64) * 0.37).sin() * 1e3)
                    .collect(),
            });
        }
    }
    ChunkedCheckpoint { step, dims: (nx, ny, nz), q, scheme, chunks }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn checkpoint_roundtrips_arbitrary_state(
        step in 0u64..u64::MAX / 2,
        nx in 1u32..7, ny in 1u32..7, nz in 1u32..4,
        q in prop::sample::select(vec![9u32, 15, 19, 27]),
        px in 1u32..4, py in 1u32..4,
        seed in 0u64..1_000_000,
        scheme in 0u8..=1,
    ) {
        let ck = tiled(step, (nx, ny, nz), q, (px, py), scheme, seed);
        let mut bytes = Vec::new();
        ck.write(&mut bytes).unwrap();
        let back = ChunkedCheckpoint::read(&mut bytes.as_slice()).unwrap();
        // Whatever the tiling, the chunks cover the domain exactly once.
        prop_assert_eq!(back.to_soa().unwrap().len(), (nx * ny * nz * q) as usize);
        prop_assert_eq!(back, ck);
    }

    #[test]
    fn to_soa_returns_the_grid_the_tiles_were_cut_from(
        nx in 1usize..9, ny in 1usize..9, nz in 1usize..4,
        q in prop::sample::select(vec![1usize, 9, 19]),
        px in 1u32..5, py in 1u32..5,
        seed in 0u64..1_000_000,
    ) {
        let dims = GridDims::new(nx, ny, nz);
        let soa: Vec<f64> = (0..dims.cells() * q)
            .map(|i| ((seed as f64 + i as f64) * 0.61).cos())
            .collect();
        // The same grid with every run stored rotated by `rot(qi, x, y)`, the
        // way an in-place streaming scheme leaves it: f(z) = run[(z + rot) % nz].
        let rot = |qi: usize, x: usize, y: usize| (qi + x * 3 + y * 5 + seed as usize) % nz;
        let mut rotated = soa.clone();
        for qi in 0..q {
            for y in 0..ny {
                for x in 0..nx {
                    let at = qi * dims.cells() + dims.idx(x, y, 0);
                    rotated[at..at + nz].rotate_right(rot(qi, x, y));
                }
            }
        }
        // Cut the grid along `tiled`'s rectangles, packing each from the
        // rotated runs.
        let tiles = tiled(0, (nx as u32, ny as u32, nz as u32), q as u32, (px, py), 0, seed);
        let chunks = tiles
            .chunks
            .iter()
            .map(|ch| {
                let (x0, y0) = (ch.meta.x0 as usize, ch.meta.y0 as usize);
                CheckpointChunk::pack(nz, q, ch.meta, |qi, x, y| {
                    let at = qi * dims.cells() + dims.idx(x0 + x, y0 + y, 0);
                    (&rotated[at..at + nz], rot(qi, x0 + x, y0 + y))
                })
            })
            .collect();
        let ck = ChunkedCheckpoint { chunks, ..tiles };
        prop_assert_eq!(ck.to_soa().unwrap(), soa);
    }

    #[test]
    fn checkpoint_detects_any_single_byte_corruption(
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let ck = tiled(7, (4, 2, 2), 9, (2, 1), 0, 3);
        let mut bytes = Vec::new();
        ck.write(&mut bytes).unwrap();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        // Any single-byte change must fail (CRC-32 catches all 1-byte errors).
        prop_assert!(ChunkedCheckpoint::read(&mut bytes.as_slice()).is_err());
    }

    #[test]
    fn ppm_from_arbitrary_field_is_well_formed(
        vals in prop::collection::vec(-1e6f64..1e6, 12),
    ) {
        let img = PpmImage::from_scalar(4, 3, &vals, colormap_viridis_like);
        prop_assert_eq!(img.rgb.len(), 36);
        // The extremes of the field map to the colormap anchors.
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let idx = vals.iter().position(|&v| v == lo).unwrap();
        prop_assert_eq!(img.get(idx % 4, idx / 4), colormap_viridis_like(0.0));
    }

    #[test]
    fn colormaps_always_return_valid_rgb(t in -10.0f64..10.0) {
        // Clamping: out-of-range t never panics and matches the boundary color.
        let v = colormap_viridis_like(t);
        let j = colormap_jet(t);
        if t <= 0.0 {
            prop_assert_eq!(v, colormap_viridis_like(0.0));
            prop_assert_eq!(j, colormap_jet(0.0));
        }
        if t >= 1.0 {
            prop_assert_eq!(v, colormap_viridis_like(1.0));
            prop_assert_eq!(j, colormap_jet(1.0));
        }
    }

    #[test]
    fn probe_log_columns_roundtrip(
        rows in prop::collection::vec((0.0f64..1e6, -1e3f64..1e3), 1..40),
    ) {
        let mut log = ProbeLog::new(&["t", "v"]);
        for (t, v) in &rows {
            log.push(&[*t, *v]);
        }
        let t_col = log.column("t").unwrap();
        let v_col = log.column("v").unwrap();
        prop_assert_eq!(t_col.len(), rows.len());
        for (i, (t, v)) in rows.iter().enumerate() {
            prop_assert_eq!(t_col[i], *t);
            prop_assert_eq!(v_col[i], *v);
        }
        // CSV line count = header + rows.
        let mut csv = Vec::new();
        log.write_csv(&mut csv).unwrap();
        prop_assert_eq!(
            String::from_utf8(csv).unwrap().lines().count(),
            rows.len() + 1
        );
    }

    #[test]
    fn tail_mean_is_bounded_by_extremes(
        vals in prop::collection::vec(-100.0f64..100.0, 1..30),
        n in 1usize..40,
    ) {
        let mut log = ProbeLog::new(&["v"]);
        for v in &vals {
            log.push(&[*v]);
        }
        let mean = log.tail_mean("v", n).unwrap();
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
    }
}
