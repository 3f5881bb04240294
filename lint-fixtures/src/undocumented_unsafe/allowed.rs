#[expect(
    clippy::undocumented_unsafe_blocks,
    reason = "safety argued in the module docs"
)]
pub fn read(x: &u8) -> u8 {
    let p: *const u8 = x;
    unsafe { *p }
}
