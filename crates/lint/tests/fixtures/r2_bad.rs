// Panic-site fixture (R5): a decode function exercising every way the rule can fire —
// panicking method calls, panicking macros, direct slice indexing, and
// unchecked size arithmetic.

pub fn decode(bytes: &[u8]) -> u32 {
    assert!(bytes.len() >= 8); // finding: panicking macro
    let declared = bytes[0] as usize; // finding: direct indexing
    let total = declared * 4 + 2; // findings: unchecked `*` and `+`
    let word: [u8; 4] = bytes[2..6].try_into().expect("4 bytes"); // findings: indexing + expect
    let _ = bytes.get(total).copied().unwrap(); // finding: unwrap
    u32::from_le_bytes(word)
}
