//! The fleet migration envelope: how a job (spec + progress + checkpoint
//! bytes) travels between the controller and workers.
//!
//! Layout (integers little-endian):
//!
//! ```text
//! magic     8 B   "SWLBFLT1"
//! meta_len  u32   length of the JSON metadata blob
//! meta      JSON  {"spec":{...},"fleet_id":N,"step":N,"width":W}
//! ckpt      rest  raw checkpoint-store bytes (may be empty when the job
//!                 has never checkpointed)
//! ```
//!
//! The checkpoint bytes are the exact on-disk form produced by
//! [`swlb_io::CheckpointStore::latest_valid_bytes`] and installed verbatim
//! by `seed_bytes` on the receiving worker — no re-encode, so a migration
//! round-trips bit-exact through the chunked store, whatever partition wrote
//! the chunks and whatever width the job asks for at its destination. The
//! receiver verifies them with the one checkpoint reader, so a payload in a
//! retired whole-domain layout still lands. Transport integrity comes from
//! the HTTP `x-swlb-crc32` header plus the checkpoint's own internal CRC.

use crate::json::{self, Json};
use crate::spec::JobSpec;
use swlb_obs::SwlbError;

/// Envelope magic; bump the trailing digit if the layout ever changes.
pub const ENVELOPE_MAGIC: &[u8; 8] = b"SWLBFLT1";

/// A job in flight between fleet nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct PushEnvelope {
    /// The submission, verbatim (tenant included).
    pub spec: JobSpec,
    /// Controller-assigned fleet id — stable across migrations and worker
    /// deaths; worker-local ids are per-worker and never travel.
    pub fleet_id: u64,
    /// Steps completed at the checkpoint the envelope carries (0 when no
    /// checkpoint travels).
    pub step: u64,
    /// The job's requested width, a copy of `spec.width` that the envelope
    /// layout carries; receivers read the spec.
    pub width: u32,
    /// Raw checkpoint bytes; empty = start from scratch.
    pub ckpt: Vec<u8>,
}

impl PushEnvelope {
    /// Serialize for an HTTP body.
    pub fn encode(&self) -> Vec<u8> {
        let meta = Json::obj([
            ("spec", self.spec.to_json()),
            ("fleet_id", Json::num(self.fleet_id as f64)),
            ("step", Json::num(self.step as f64)),
            ("width", Json::num(self.width as f64)),
        ])
        .to_text();
        let mut out = Vec::with_capacity(12 + meta.len() + self.ckpt.len());
        out.extend_from_slice(ENVELOPE_MAGIC);
        out.extend_from_slice(&(meta.len() as u32).to_le_bytes());
        out.extend_from_slice(meta.as_bytes());
        out.extend_from_slice(&self.ckpt);
        out
    }

    /// Parse an envelope body; the embedded spec is re-validated.
    pub fn decode(bytes: &[u8]) -> Result<Self, SwlbError> {
        if bytes.len() < 12 || &bytes[..8] != ENVELOPE_MAGIC {
            return Err(SwlbError::CorruptData(
                "fleet envelope: bad magic or truncated header".into(),
            ));
        }
        let meta_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let meta_end = 12usize
            .checked_add(meta_len)
            .filter(|end| *end <= bytes.len())
            .ok_or_else(|| {
                SwlbError::CorruptData("fleet envelope: metadata overruns body".into())
            })?;
        let meta_text = std::str::from_utf8(&bytes[12..meta_end])
            .map_err(|_| SwlbError::CorruptData("fleet envelope: metadata not UTF-8".into()))?;
        let meta = json::parse(meta_text)?;
        let spec = JobSpec::from_json(meta.get("spec").ok_or_else(|| {
            SwlbError::CorruptData("fleet envelope: metadata missing spec".into())
        })?)?;
        let num = |key: &str| {
            meta.get(key).and_then(Json::as_u64).ok_or_else(|| {
                SwlbError::CorruptData(format!("fleet envelope: metadata missing {key:?}"))
            })
        };
        Ok(PushEnvelope {
            spec,
            fleet_id: num("fleet_id")?,
            step: num("step")?,
            width: u32::try_from(num("width")?)
                .map_err(|_| SwlbError::CorruptData("fleet envelope: width out of range".into()))?,
            ckpt: bytes[meta_end..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PushEnvelope {
        PushEnvelope {
            spec: crate::spec::tests::sample_spec(),
            fleet_id: 42,
            step: 96,
            width: 4,
            ckpt: vec![7u8; 257],
        }
    }

    #[test]
    fn envelope_roundtrip_with_and_without_checkpoint() {
        let env = sample();
        let back = PushEnvelope::decode(&env.encode()).unwrap();
        assert_eq!(back, env);

        let mut bare = sample();
        bare.ckpt.clear();
        bare.step = 0;
        let back = PushEnvelope::decode(&bare.encode()).unwrap();
        assert_eq!(back, bare);
        assert!(back.ckpt.is_empty());
    }

    // The malformed-envelope corpus: `decode` reads what `POST /v1/fleet/push`
    // received. Layout of `sample().encode()`: magic 0..8, meta_len 8..12,
    // JSON metadata 12..12+meta_len, checkpoint bytes to the end.

    #[test]
    fn envelope_cut_at_every_byte_is_refused_up_to_the_checkpoint() {
        let bytes = sample().encode();
        let meta_end = bytes.len() - sample().ckpt.len();
        for keep in 0..meta_end {
            match PushEnvelope::decode(&bytes[..keep]) {
                Err(SwlbError::CorruptData(_)) => {}
                other => panic!("cut to {keep} B: {other:?}"),
            }
        }
        // The checkpoint is "the rest": a cut there is a shorter checkpoint,
        // which its own CRC (not the envelope) refuses downstream.
        for keep in meta_end..bytes.len() {
            let env = PushEnvelope::decode(&bytes[..keep]).unwrap();
            assert_eq!(env.ckpt.len(), keep - meta_end);
        }
    }

    #[test]
    fn every_single_bit_flip_decodes_or_fails_without_a_panic() {
        // A flipped metadata bit may still be an envelope (another name,
        // another step); a flipped framing bit never is.
        let bytes = sample().encode();
        let meta_end = bytes.len() - sample().ckpt.len();
        for byte in 0..meta_end + 2 {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                let r = PushEnvelope::decode(&bad);
                assert!(
                    byte >= 12 || r.is_err(),
                    "bit {bit} of framing byte {byte} accepted"
                );
            }
        }
    }

    #[test]
    fn hostile_lengths_and_metadata_are_refused() {
        let bytes = sample().encode();
        let with_len = |len: u32| {
            let mut bad = bytes.clone();
            bad[8..12].copy_from_slice(&len.to_le_bytes());
            bad
        };
        let meta_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        // Past the body, at the integer limits, and one either side of right.
        for len in [
            u32::MAX,
            u32::MAX - 11,
            1 << 31,
            bytes.len() as u32,
            meta_len + 1,
            meta_len - 1,
            0,
        ] {
            match PushEnvelope::decode(&with_len(len)) {
                Err(SwlbError::CorruptData(_)) => {}
                other => panic!("meta_len {len}: {other:?}"),
            }
        }
        // Well-framed metadata that is not what an envelope carries.
        let framed = |meta: &str| {
            let mut out = ENVELOPE_MAGIC.to_vec();
            out.extend_from_slice(&(meta.len() as u32).to_le_bytes());
            out.extend_from_slice(meta.as_bytes());
            out
        };
        let spec = sample().spec.to_json().to_text();
        for meta in [
            "".to_string(),
            "[]".to_string(),
            "{}".to_string(),
            "[".repeat(20_000),
            format!("{{\"spec\":{spec}}}"),
            format!("{{\"spec\":{spec},\"fleet_id\":1,\"step\":2}}"),
            format!("{{\"spec\":{spec},\"fleet_id\":-1,\"step\":2,\"width\":1}}"),
            format!("{{\"spec\":{spec},\"fleet_id\":1.5,\"step\":2,\"width\":1}}"),
            format!("{{\"spec\":{spec},\"fleet_id\":1,\"step\":1e999,\"width\":1}}"),
            // 2^32 + 4 used to truncate to width 4.
            format!("{{\"spec\":{spec},\"fleet_id\":1,\"step\":2,\"width\":4294967300}}"),
            r#"{"spec":7,"fleet_id":1,"step":2,"width":1}"#.to_string(),
        ] {
            let what = &meta[..meta.len().min(60)];
            match PushEnvelope::decode(&framed(&meta)) {
                Err(SwlbError::CorruptData(_)) => {}
                other => panic!("{what:?}: {other:?}"),
            }
        }
        let mut not_utf8 = framed("{}");
        not_utf8[12] = 0xff;
        assert!(matches!(
            PushEnvelope::decode(&not_utf8),
            Err(SwlbError::CorruptData(_))
        ));
    }

    proptest::proptest! {
        #[test]
        fn encode_then_decode_is_the_identity(
            fleet_id in 0u64..(1 << 53),
            step in 0u64..(1 << 53),
            width in 0u32..=u32::MAX,
            ckpt in proptest::prop::collection::vec(0u8..=255, 0..600),
        ) {
            let env = PushEnvelope { fleet_id, step, width, ckpt, ..sample() };
            proptest::prop_assert_eq!(PushEnvelope::decode(&env.encode()).unwrap(), env);
        }
    }

    #[test]
    fn damaged_envelopes_are_rejected() {
        let bytes = sample().encode();
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(PushEnvelope::decode(&bad).is_err());
        // Metadata length pointing past the end of the body.
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(PushEnvelope::decode(&bad).is_err());
        // Truncated below the header.
        assert!(PushEnvelope::decode(&bytes[..10]).is_err());
        // A spec that fails validation is refused at decode time.
        let mut env = sample();
        env.spec.steps = 0;
        assert!(PushEnvelope::decode(&env.encode()).is_err());
    }
}
