//! Bad: an `Option` default spelled with `unwrap_or_default`, which the
//! lexer cannot tell apart from a `Result` discard.

pub fn ladder_depth(opt: Option<u32>) -> u32 {
    opt.unwrap_or_default()
}
