//! Forged length fields must fail, not abort.
//!
//! Each case takes a genuine checkpoint, overwrites one decoded
//! element count with a huge value, and reseals the envelope with a
//! valid checksum so the forgery gets past the integrity check and
//! reaches the decoder. Every decoder that sizes an allocation from a
//! count must refuse such bytes with a typed [`RestoreError`] instead
//! of asking the allocator for terabytes (which aborts the process —
//! no `catch_unwind` or shard supervision can contain that).

use td_counters::ExactDecayedSum;
use td_decay::checkpoint::{Checkpoint, CheckpointWriter, RestoreError};
use td_decay::Exponential;
use td_eh::{ClassicEh, DominationEh};
use td_registry::{KeyedRegistry, RegistryOptions};

/// Envelope header size (magic + version + length + checksum).
const HEADER: usize = 22;

/// Overwrites the payload bytes that end `from_end` bytes before the
/// end of `sealed` with `value`, then reseals the payload.
fn forge(sealed: &[u8], from_end: usize, value: &[u8]) -> Vec<u8> {
    let mut payload = sealed[HEADER..].to_vec();
    let at = payload.len() - from_end;
    payload[at..at + value.len()].copy_from_slice(value);
    let mut w = CheckpointWriter::new(payload[0]);
    for &b in &payload[1..] {
        w.put_u8(b);
    }
    w.seal()
}

/// Forges the trailing `u64` count of `sealed` to each huge value and
/// checks `restore` refuses it with a typed error.
fn refuses_forged_trailing_count<B: Checkpoint>(sealed: &[u8], fresh: impl Fn() -> B) {
    for count in [1u64 << 40, u64::MAX / 24 + 1, u64::MAX] {
        let forged = forge(sealed, 8, &count.to_le_bytes());
        let mut b = fresh();
        assert_eq!(
            b.restore_checkpoint(&forged),
            Err(RestoreError::Truncated),
            "count {count} was not refused"
        );
    }
}

#[test]
fn classic_eh_claiming_2_pow_40_buckets_is_refused() {
    let fresh = || ClassicEh::new(0.1, Some(100));
    let sealed = fresh().save_checkpoint();
    // An empty sketch's payload ends with its bucket count.
    refuses_forged_trailing_count(&sealed, fresh);
}

#[test]
fn domination_eh_forged_bucket_count_is_refused() {
    let fresh = || DominationEh::new(0.1, None);
    refuses_forged_trailing_count(&fresh().save_checkpoint(), fresh);
}

#[test]
fn exact_sum_forged_item_count_is_refused() {
    let fresh = || ExactDecayedSum::new(Exponential::new(0.01));
    refuses_forged_trailing_count(&fresh().save_checkpoint(), fresh);
}

#[test]
fn registry_forged_slot_and_free_counts_are_refused() {
    let fresh = || {
        KeyedRegistry::new(RegistryOptions::default(), || {
            ExactDecayedSum::new(Exponential::new(0.01))
        })
    };
    let sealed = fresh().save_checkpoint();
    // An empty registry ends with `slot_count: u32, free_len: u32`.
    for from_end in [8, 4] {
        let forged = forge(&sealed, from_end, &u32::MAX.to_le_bytes());
        assert_eq!(
            fresh().restore_checkpoint(&forged),
            Err(RestoreError::Truncated),
            "count {from_end} bytes from the end was not refused"
        );
    }
}
