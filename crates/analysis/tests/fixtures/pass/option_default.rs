//! Good: the same `Option` default spelled as a `match`.

pub fn ladder_depth(opt: Option<u32>) -> u32 {
    match opt {
        Some(depth) => depth,
        None => u32::default(),
    }
}
