pub fn read(x: &u8) -> u8 {
    let p: *const u8 = x;
    unsafe { *p } //~ clippy::undocumented_unsafe_blocks
}

pub struct Handle(pub *const u8);

unsafe impl Send for Handle {} //~ clippy::undocumented_unsafe_blocks

/// # Safety
/// `p` points at a live, initialized byte.
pub unsafe fn read_raw(p: *const u8) -> u8 {
    *p //~ unsafe_op_in_unsafe_fn
}
