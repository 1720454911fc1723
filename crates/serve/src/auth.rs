//! Tenant authentication for `bnb serve`: keyed SipHash-2-4 tags over
//! SUBMIT frames.
//!
//! Since PR 6 the wire protocol let any client *assert* a tenant id and
//! burn that tenant's quota. A server started with `--tenant-keys FILE`
//! closes the hole: each tenant has a shared secret, clients send
//! [`crate::protocol::Message::SubmitTagged`] whose 8-byte tag is
//! SipHash-2-4 over the canonical `(tenant, request_id, dests)` encoding
//! under the tenant's key, and the server refuses anything else with a
//! typed `ERROR(Auth)`. No keys file ⇒ open mode, the pre-0.4 behavior.
//!
//! SipHash-2-4 is implemented here by hand (~60 lines): the workspace is
//! std-only and `std::hash::SipHasher` has been deprecated since 1.13,
//! with no stable keyed replacement. The reference vectors from the
//! SipHash paper pin the implementation.

use std::collections::HashMap;

/// SipHash-2-4 of `data` under a 128-bit key.
///
/// The classic Aumasson–Bernstein construction: 2 compression rounds per
/// 8-byte word, 4 finalization rounds.
pub fn siphash24(key: &[u8; 16], data: &[u8]) -> u64 {
    siphash24_parts(key, &[data])
}

/// SipHash-2-4 of the concatenation of `parts`, without concatenating
/// them: a server tags a SUBMIT's header fields and its destination
/// words where they sit.
fn siphash24_parts(key: &[u8; 16], parts: &[&[u8]]) -> u64 {
    let k0 = u64::from_le_bytes(key[..8].try_into().unwrap());
    let k1 = u64::from_le_bytes(key[8..].try_into().unwrap());
    let mut v0 = k0 ^ 0x736f_6d65_7073_6575;
    let mut v1 = k1 ^ 0x646f_7261_6e64_6f6d;
    let mut v2 = k0 ^ 0x6c79_6765_6e65_7261;
    let mut v3 = k1 ^ 0x7465_6462_7974_6573;

    macro_rules! sipround {
        () => {
            v0 = v0.wrapping_add(v1);
            v1 = v1.rotate_left(13);
            v1 ^= v0;
            v0 = v0.rotate_left(32);
            v2 = v2.wrapping_add(v3);
            v3 = v3.rotate_left(16);
            v3 ^= v2;
            v0 = v0.wrapping_add(v3);
            v3 = v3.rotate_left(21);
            v3 ^= v0;
            v2 = v2.wrapping_add(v1);
            v1 = v1.rotate_left(17);
            v1 ^= v2;
            v2 = v2.rotate_left(32);
        };
    }

    // Little-endian 8-byte words across part boundaries; the final word
    // holds the remaining bytes and the length in its top byte.
    let mut m = 0u64;
    let mut len = 0usize;
    for &byte in parts.iter().copied().flatten() {
        m |= u64::from(byte) << (8 * (len % 8));
        len += 1;
        if len.is_multiple_of(8) {
            v3 ^= m;
            sipround!();
            sipround!();
            v0 ^= m;
            m = 0;
        }
    }
    m |= (len as u64 & 0xff) << 56;
    v3 ^= m;
    sipround!();
    sipround!();
    v0 ^= m;

    v2 ^= 0xff;
    sipround!();
    sipround!();
    sipround!();
    sipround!();
    v0 ^ v1 ^ v2 ^ v3
}

/// Derives a tenant's 128-bit SipHash key from its shared secret string:
/// two SipHash-2-4 passes over the secret under distinct fixed domain
/// keys. Not a password KDF — the secrets are machine-provisioned tokens,
/// and the derivation only has to be deterministic and well-mixed.
pub fn derive_key(secret: &str) -> [u8; 16] {
    const D0: [u8; 16] = *b"bnb-serve-key-lo";
    const D1: [u8; 16] = *b"bnb-serve-key-hi";
    let lo = siphash24(&D0, secret.as_bytes());
    let hi = siphash24(&D1, secret.as_bytes());
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&lo.to_le_bytes());
    key[8..].copy_from_slice(&hi.to_le_bytes());
    key
}

/// The tag over the canonical bytes a SUBMIT tag covers: big-endian
/// tenant, request id, then each destination as the big-endian word it
/// travels as — exactly the header/payload fields the server acts on, so
/// nothing taggable is outside the tag.
fn tag_wire(key: &[u8; 16], tenant: u16, request_id: u64, dest_bytes: &[u8]) -> u64 {
    siphash24_parts(
        key,
        &[&tenant.to_be_bytes(), &request_id.to_be_bytes(), dest_bytes],
    )
}

/// The tenant-id → key table loaded from `--tenant-keys FILE`.
#[derive(Debug, Clone, Default)]
pub struct TenantKeys {
    keys: HashMap<u16, [u8; 16]>,
}

impl TenantKeys {
    /// Parses the keys-file format: one `tenant:secret` per line, blank
    /// lines and `#` comments ignored. Secrets may contain further `:`s.
    pub fn parse(text: &str) -> Result<TenantKeys, String> {
        let mut keys = HashMap::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (tenant, secret) = line
                .split_once(':')
                .ok_or_else(|| format!("line {}: expected tenant:secret", idx + 1))?;
            let tenant: u16 = tenant
                .trim()
                .parse()
                .map_err(|e| format!("line {}: bad tenant id: {e}", idx + 1))?;
            if secret.is_empty() {
                return Err(format!("line {}: empty secret", idx + 1));
            }
            if keys.insert(tenant, derive_key(secret)).is_some() {
                return Err(format!("line {}: duplicate tenant {tenant}", idx + 1));
            }
        }
        if keys.is_empty() {
            return Err("keys file defines no tenants".to_string());
        }
        Ok(TenantKeys { keys })
    }

    /// How many tenants have keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no tenant has a key.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The tag a client must attach to this frame, or `None` for a
    /// tenant with no key.
    pub fn tag(&self, tenant: u16, request_id: u64, dests: &[u32]) -> Option<u64> {
        let key = self.keys.get(&tenant)?;
        let dest_bytes: Vec<u8> = dests.iter().flat_map(|d| d.to_be_bytes()).collect();
        Some(tag_wire(key, tenant, request_id, &dest_bytes))
    }

    /// Verifies a received tag. Unknown tenants verify as `false`: a
    /// keyed server serves only provisioned tenants. The comparison is
    /// branch-free on the tag bytes.
    pub fn verify(&self, tenant: u16, request_id: u64, dests: &[u32], tag: u64) -> bool {
        match self.tag(tenant, request_id, dests) {
            // Constant-time-ish compare: no early exit on a byte match.
            Some(want) => (want ^ tag) == 0,
            None => false,
        }
    }

    /// [`Self::verify`] over the destinations as they arrived on the
    /// wire: big-endian words, four bytes each
    /// ([`crate::protocol::SubmitView::dest_bytes`]).
    pub fn verify_wire(&self, tenant: u16, request_id: u64, dest_bytes: &[u8], tag: u64) -> bool {
        match self.keys.get(&tenant) {
            Some(key) => (tag_wire(key, tenant, request_id, dest_bytes) ^ tag) == 0,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The SipHash-2-4 reference vectors from Appendix A of the
    /// Aumasson–Bernstein paper: key 000102…0f, messages 00, 0001,
    /// 000102, … The first 8 expected outputs pin every code path
    /// (short tail, exact block, block + tail).
    #[test]
    fn siphash24_matches_reference_vectors() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let expected: [u64; 9] = [
            0x726f_db47_dd0e_0e31,
            0x74f8_39c5_93dc_67fd,
            0x0d6c_8009_d9a9_4f5a,
            0x8567_6696_d7fb_7e2d,
            0xcf27_94e0_2771_87b7,
            0x1876_5564_cd99_a68d,
            0xcbc9_466e_58fe_e3ce,
            0xab02_00f5_8b01_d137,
            0x93f5_f579_9a93_2462,
        ];
        let data: Vec<u8> = (0..expected.len() as u8).collect();
        for (n, &want) in expected.iter().enumerate() {
            assert_eq!(siphash24(&key, &data[..n]), want, "message length {n}");
        }
    }

    #[test]
    fn tags_bind_every_field() {
        let keys = TenantKeys::parse("3:open-sesame\n7:other\n").unwrap();
        let tag = keys.tag(3, 41, &[1, 0, 2]).unwrap();
        assert!(keys.verify(3, 41, &[1, 0, 2], tag));
        // Any field flip breaks the tag.
        assert!(!keys.verify(3, 42, &[1, 0, 2], tag), "request id");
        assert!(!keys.verify(3, 41, &[1, 0, 3], tag), "dests");
        assert!(!keys.verify(7, 41, &[1, 0, 2], tag), "tenant");
        assert!(!keys.verify(3, 41, &[1, 0, 2], tag ^ 1), "tag bit");
        // Unprovisioned tenants never verify.
        assert!(!keys.verify(5, 41, &[1, 0, 2], tag));
        assert_eq!(keys.tag(5, 41, &[1, 0, 2]), None);
    }

    #[test]
    fn keys_file_format_is_strict() {
        assert!(TenantKeys::parse("# comment\n\n1:s3cret\n2:with:colons\n").is_ok());
        assert!(TenantKeys::parse("").is_err(), "no tenants");
        assert!(TenantKeys::parse("nope\n").is_err(), "missing separator");
        assert!(TenantKeys::parse("1:a\n1:b\n").is_err(), "duplicate");
        assert!(TenantKeys::parse("70000:a\n").is_err(), "tenant overflow");
        assert!(TenantKeys::parse("1:\n").is_err(), "empty secret");
    }

    #[test]
    fn derived_keys_differ_per_secret() {
        assert_ne!(derive_key("a"), derive_key("b"));
        assert_ne!(derive_key(""), derive_key("a"));
        assert_eq!(derive_key("stable"), derive_key("stable"));
    }
}
