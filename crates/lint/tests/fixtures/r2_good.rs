// Panic-site fixture twin (R5): the same decode written totally — checked `get`,
// structured errors, saturating arithmetic — plus the shapes the rule
// must NOT confuse with indexing (attributes, slice patterns, array
// types) and the test-module exemption.

#[derive(Debug)]
pub enum WireError {
    ShortFrame,
}

#[derive(Debug, Clone, Copy)]
pub struct Header {
    pub declared: usize,
}

pub fn decode(bytes: &[u8]) -> Result<u32, WireError> {
    let declared = bytes.first().copied().ok_or(WireError::ShortFrame)? as usize;
    let total = declared.saturating_mul(4).saturating_add(2);
    let word: [u8; 4] = bytes
        .get(2..6)
        .and_then(|w| w.try_into().ok())
        .ok_or(WireError::ShortFrame)?;
    let _ = bytes.get(total).copied().ok_or(WireError::ShortFrame)?;
    let [lo, _, _, hi] = word;
    let _ = (lo, hi, Header { declared });
    Ok(u32::from_le_bytes(word))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tests_may_index_and_unwrap() {
        let bytes = [9u8; 64];
        assert_eq!(bytes[0], 9);
        let v = decode(&bytes).unwrap();
        assert!(v > 0);
    }
}
