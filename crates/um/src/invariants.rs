//! Driver invariant checks — the body of [`UmDriver::validate`].
//!
//! Lives apart from `driver.rs` on purpose: validation is a cold
//! diagnostic sweep (the engine runs it only when validation is
//! enabled, injection tests run it after the fact), so its freely
//! allocating scans don't belong in the file whose every line the
//! `hot-path-alloc` tidy lint audits.

use std::collections::{BTreeMap, BTreeSet};

use deepum_mem::{BlockNum, TenantId};
use deepum_sim::time::Ns;

use crate::driver::UmDriver;
use crate::evict::{demand_candidates, VictimPolicy};

/// Checks the driver's internal invariants, returning the first
/// violation found as a human-readable description.
pub(crate) fn validate(d: &UmDriver) -> Result<(), String> {
    let mut total = 0u64;
    for (block, state) in d.blocks.iter() {
        total += state.resident.count_u64();
        if !state
            .prefetched_untouched
            .subtract(&state.resident)
            .is_empty()
        {
            return Err(format!("{block}: prefetched_untouched pages not resident"));
        }
        if !state.resident.intersect(&state.host_valid).is_empty() && !d.hints.is_read_mostly(block)
        {
            return Err(format!(
                "{block}: pages both device-resident and host-valid \
                 without a ReadMostly hint"
            ));
        }
    }
    if total != d.resident_pages {
        return Err(format!(
            "resident_pages counter {} != per-block sum {total}",
            d.resident_pages
        ));
    }
    if d.resident_pages > d.capacity_pages {
        return Err(format!(
            "resident_pages {} exceeds capacity {}",
            d.resident_pages, d.capacity_pages
        ));
    }
    // Wear invariants: the usable/retired extent lists must be sorted,
    // coalesced, disjoint, and jointly cover the device — so no resident
    // or free frame can overlap the ECC blacklist — and the effective
    // capacity must equal the usable frame count (retirement shrinks
    // capacity atomically with the blacklist insert).
    d.wear.validate().map_err(|e| format!("wear map: {e}"))?;
    if d.wear.usable_pages() != d.capacity_pages {
        return Err(format!(
            "capacity_pages {} != usable (non-retired) frames {}",
            d.capacity_pages,
            d.wear.usable_pages()
        ));
    }
    let mut lru_blocks = BTreeSet::new();
    let mut lru_len = 0usize;
    for (key, block) in d.lru.iter() {
        lru_len += 1;
        if !lru_blocks.insert(block) {
            return Err(format!("{block} appears twice in the LRU order"));
        }
        match d.blocks.get(block) {
            Some(state) if !state.resident.is_empty() => {
                if state.last_migrated != key {
                    return Err(format!(
                        "{block}: LRU key {key} != last_migrated {}",
                        state.last_migrated
                    ));
                }
            }
            _ => return Err(format!("{block} in LRU but not resident")),
        }
    }
    let resident_blocks = d
        .blocks
        .iter()
        .filter(|(_, s)| !s.resident.is_empty())
        .count();
    if resident_blocks != lru_len {
        return Err(format!(
            "{resident_blocks} resident blocks but {lru_len} LRU entries"
        ));
    }
    // No two resident blocks of the same owner may share an LRU
    // timestamp unless they migrated in the same drain batch (same
    // epoch). Equal stamps from different epochs mean virtual time
    // regressed — exactly the nondeterminism symptom the D1 lints
    // guard against. The check is per owner because each tenant
    // advances its own virtual clock: two tenants' drains may
    // legitimately coincide on a nanosecond.
    let mut stamp_epochs: BTreeMap<(Option<TenantId>, Ns), (u64, BlockNum)> = BTreeMap::new();
    for (block, state) in d.blocks.iter() {
        if state.resident.is_empty() {
            continue;
        }
        match stamp_epochs.get(&(state.owner, state.last_migrated)) {
            Some(&(epoch, first)) if epoch != state.last_epoch => {
                return Err(format!(
                    "{first} and {block} share LRU timestamp {} but migrated \
                     in different drain batches (epochs {epoch} vs {})",
                    state.last_migrated, state.last_epoch
                ));
            }
            Some(_) => {}
            None => {
                stamp_epochs.insert(
                    (state.owner, state.last_migrated),
                    (state.last_epoch, block),
                );
            }
        }
    }
    // Pressure-governor invariant: the first-pass demand-eviction
    // candidate list must be disjoint from the victim-cooldown set —
    // a cooling block that still reaches the candidate list means
    // the scan and the governor clock have drifted apart.
    if let Some(g) = &d.pressure {
        let policy = VictimPolicy {
            protected: &d.protected,
            governor: Some(g),
            hints: Some(&d.hints),
        };
        for block in demand_candidates(&d.lru, &policy) {
            if g.in_cooldown(block) {
                return Err(format!(
                    "{block} is an eviction candidate while in victim cooldown \
                     ({} kernels remaining)",
                    g.cooldown_remaining(block)
                ));
            }
        }
    }
    // Scan-floor invariant: the untenanted LRU pass skips every entry
    // at or below the floor, which is sound only while each of them is
    // first-pass ineligible for a reason the scan would pass over with
    // no side effect (not a traced cooldown skip). Tenant scopes always
    // scan from the front, so a registered tenant leaves no floor.
    if let Some(floor) = d.lru.floor() {
        let (floor_key, floor_block) = floor;
        if d.tenancy.as_ref().is_some_and(|t| !t.tenants.is_empty()) {
            return Err(format!(
                "scan floor ({floor_block} at {floor_key}) set while a tenant is registered"
            ));
        }
        let policy = VictimPolicy {
            protected: &d.protected,
            governor: d.pressure.as_ref(),
            hints: Some(&d.hints),
        };
        for (key, block) in d.lru.iter().take_while(|&e| e <= floor) {
            if policy.first_pass_eligible(block) || policy.skipped_for_cooldown(block) {
                return Err(format!(
                    "{block} (LRU key {key}) is at or below the scan floor ({floor_block} \
                     at {floor_key}) but the first eviction pass would not pass it over"
                ));
            }
        }
    }
    // Hint-ordering invariant: the first-pass candidate list must
    // be partitioned — no ReadMostly-duplicated block may be
    // ordered before a non-duplicated one, i.e. a duplicated hot
    // weight is never the victim while a cooler victim exists.
    if !d.hints.no_read_mostly() {
        let policy = VictimPolicy {
            protected: &d.protected,
            governor: d.pressure.as_ref(),
            hints: Some(&d.hints),
        };
        let mut seen_duplicated = false;
        for block in demand_candidates(&d.lru, &policy) {
            if d.hints.is_read_mostly(block) {
                seen_duplicated = true;
            } else if seen_duplicated {
                return Err(format!(
                    "{block} (non-duplicated) is ordered after a ReadMostly \
                     candidate in the eviction scan"
                ));
            }
        }
    }
    // Multi-tenant invariants: floors must fit the device, each
    // ledger's residency must equal the sum over its owned blocks,
    // and fair-share eviction must never have pushed a tenant below
    // its floor while another tenant was over quota. Between slots
    // every tenant's protected set is parked in its ledger, so the
    // driver's own must be empty: a write there reaches no tenant.
    if let Some(t) = &d.tenancy {
        if t.active.is_none() && !t.tenants.is_empty() && !d.protected.is_empty() {
            return Err(format!(
                "{} blocks protected on the driver while no tenant slot is active",
                d.protected.len()
            ));
        }
        let mut owned: BTreeMap<TenantId, u64> = BTreeMap::new();
        for (_, state) in d.blocks.iter() {
            if let Some(tid) = state.owner {
                *owned.entry(tid).or_insert(0) += state.resident.count_u64();
            }
        }
        let mut floors = 0u64;
        for (tid, l) in &t.tenants {
            floors += l.floor_pages;
            let sum = owned.remove(tid).unwrap_or(0);
            if sum != l.resident_pages {
                return Err(format!(
                    "tenant {tid}: ledger resident_pages {} != owned-block sum {sum}",
                    l.resident_pages
                ));
            }
            if l.floor_violations > 0 {
                return Err(format!(
                    "tenant {tid}: {} evictions charged below its guaranteed floor \
                     while another tenant was over quota",
                    l.floor_violations
                ));
            }
        }
        if floors > d.capacity_pages {
            return Err(format!(
                "tenant floors sum to {floors} pages, exceeding device capacity {}",
                d.capacity_pages
            ));
        }
        for (tid, sum) in owned {
            if sum > 0 {
                return Err(format!(
                    "{sum} resident pages owned by unregistered tenant {tid}"
                ));
            }
        }
    }
    Ok(())
}
