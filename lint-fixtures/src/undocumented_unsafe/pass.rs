pub fn read(x: &u8) -> u8 {
    let p: *const u8 = x;
    // SAFETY: `p` comes from a reference, so it points at a live, initialized byte.
    unsafe { *p }
}

pub fn unsafe_sounding_name_is_fine(unsafe_box: u8) -> u8 {
    unsafe_box
}

pub struct Handle(pub *const u8);

// SAFETY: a `Handle` only carries the pointer; nothing dereferences it.
unsafe impl Send for Handle {}

/// # Safety
/// `p` points at a live, initialized byte.
pub unsafe fn read_raw(p: *const u8) -> u8 {
    // SAFETY: the caller upholds this function's contract.
    unsafe { *p }
}
