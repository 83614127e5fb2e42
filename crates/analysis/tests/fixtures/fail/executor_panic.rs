//! Bad: the UM-path executor panics on a free of an unmapped tensor,
//! so a malformed step program aborts the whole process — and on a
//! shared device, every co-scheduled tenant with it.

use std::collections::BTreeMap;

pub fn free_tensor(tensors: &mut BTreeMap<u32, u64>, id: u32) -> u64 {
    let bytes = tensors[&id];
    tensors.remove(&id).expect("free of unmapped tensor");
    bytes
}
