//! Good: a free of an unmapped tensor ends the run with a typed error;
//! a tenant's scheduler keeps its co-tenants running.

use std::collections::BTreeMap;

pub fn free_tensor(tensors: &mut BTreeMap<u32, u64>, id: u32) -> Result<u64, String> {
    tensors
        .remove(&id)
        .ok_or_else(|| format!("free of unmapped tensor {id}"))
}
