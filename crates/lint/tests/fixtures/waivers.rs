// Waiver fixture: one trailing waiver, one whole-line waiver, one
// unused waiver, one malformed directive.

pub fn decode(bytes: &[u8]) -> u8 {
    tag(bytes).wrapping_add(width(bytes)).wrapping_add(clean()).wrapping_add(noisy())
}

fn tag(bytes: &[u8]) -> u8 {
    bytes[0] // vapro-lint: allow(R5, the caller checked the length)
}

fn width(bytes: &[u8]) -> u8 {
    // vapro-lint: allow(R5, header bytes are present by construction)
    *bytes.get(1).unwrap()
}

pub fn clean() -> u8 {
    // vapro-lint: allow(R5, nothing on the next line can panic)
    42
}

pub fn noisy() -> u8 {
    // vapro-lint: allow(R5)
    7
}
