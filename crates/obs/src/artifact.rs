//! Atomic, checksummed artifact IO: the durability primitive under the
//! crash-safe run layer.
//!
//! Every run artifact is written with [`write_atomic`] (write to a
//! `*.tmp` sibling, fsync, rename over the destination, fsync the
//! parent directory) so a crash at any instant leaves either the old
//! bytes or the new bytes on disk — never a torn prefix. [`seal`]
//! additionally records a CRC32 + length sidecar (`<name>.crc`), and
//! [`verify`] classifies what a reader finds:
//!
//! * [`ArtifactState::Clean`] — the bytes match the seal exactly;
//! * [`ArtifactState::Torn`] — the seal is missing/unparseable or the
//!   length disagrees (truncation, interrupted seal);
//! * [`ArtifactState::Corrupt`] — the length matches but the checksum
//!   does not (bit rot, in-place mutation);
//! * [`ArtifactState::Missing`] — no artifact at all.
//!
//! `hprc-exp resume` salvages a sweep point only when every one of its
//! sealed artifacts verifies `Clean`; anything else is re-executed.

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// CRC32 (IEEE 802.3, the zlib/PNG polynomial), slice-by-16: sixteen
/// bytes per step through sixteen 256-entry tables, then a bytewise
/// tail through the first table. Same polynomial and values as the
/// one-table bytewise form, with one dependent step per 16 bytes
/// instead of one per byte.
///
/// Hand-rolled because `hprc-obs` stays dependency-free by design (the
/// CI `obs-zero-deps` job pins it): ~50 lines beat a crate.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLES: [[u32; 256]; 16] = crc32_tables();
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        // The running CRC folds into the first four bytes; byte `k` then
        // still has `15 - k` bytes to travel, which table `15 - k` does
        // in one lookup.
        let mut block: [u8; 16] = chunk.try_into().expect("16-byte chunk");
        for (b, h) in block.iter_mut().zip(c.to_le_bytes()) {
            *b ^= h;
        }
        c = 0;
        for (k, &b) in block.iter().enumerate() {
            c ^= TABLES[15 - k][b as usize];
        }
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Table 0 is the bytewise CRC table; table `s` advances a byte's
/// contribution through `s` further zero bytes.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[s - 1][i];
            tables[s][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    tables
}

/// The `<name>.crc` sidecar path for an artifact.
pub fn sidecar_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".crc");
    PathBuf::from(os)
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Fsync the parent directory so a rename or a newly created file's
/// directory entry is itself durable. Best effort: not every platform
/// lets a directory be opened and synced, and a failure here only
/// widens the crash window, it can never tear the artifact.
pub(crate) fn sync_parent(path: &Path) {
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

/// Writes `bytes` to `path` atomically: `<path>.tmp`, fsync, rename,
/// then a parent-directory fsync. A crash at any point leaves the
/// previous contents of `path` (or nothing) — never a torn prefix.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    sync_parent(path);
    Ok(())
}

/// Writes `bytes` to `path` atomically and records a `<name>.crc`
/// sidecar (`"<crc32 hex> <length>\n"`, itself written atomically).
/// Returns the CRC32 of `bytes`.
///
/// The artifact lands before its seal, so an interruption between the
/// two leaves a stale or missing sidecar — which [`verify`] classifies
/// as not-`Clean`, and resume re-executes the point. Re-sealing the
/// same bytes converges back to `Clean`.
pub fn seal(path: &Path, bytes: &[u8]) -> io::Result<u32> {
    let crc = crc32(bytes);
    write_atomic(path, bytes)?;
    write_atomic(
        &sidecar_path(path),
        format!("{crc:08x} {}\n", bytes.len()).as_bytes(),
    )?;
    Ok(crc)
}

/// What [`verify`] found on disk for a sealed artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactState {
    /// Bytes match the seal: safe to salvage.
    Clean {
        /// CRC32 of the artifact bytes (== the sealed value).
        crc: u32,
        /// Artifact length in bytes (== the sealed value).
        bytes: u64,
    },
    /// The seal is missing/unparseable or the length disagrees —
    /// truncation or an interrupted seal. The reason is human-readable.
    Torn(String),
    /// The length matches the seal but the checksum does not — the
    /// content was altered in place. The reason is human-readable.
    Corrupt(String),
    /// No artifact on disk.
    Missing,
}

impl ArtifactState {
    /// True only for [`ArtifactState::Clean`].
    pub fn is_clean(&self) -> bool {
        matches!(self, ArtifactState::Clean { .. })
    }
}

impl fmt::Display for ArtifactState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactState::Clean { crc, bytes } => write!(f, "clean (crc {crc:08x}, {bytes} B)"),
            ArtifactState::Torn(reason) => write!(f, "torn: {reason}"),
            ArtifactState::Corrupt(reason) => write!(f, "corrupt: {reason}"),
            ArtifactState::Missing => write!(f, "missing"),
        }
    }
}

/// Reads `path` and its `<name>.crc` sidecar and classifies the result.
/// Never panics; every failure mode maps to a non-`Clean` state.
pub fn verify(path: &Path) -> ArtifactState {
    let data = match fs::read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return ArtifactState::Missing,
        Err(e) => return ArtifactState::Torn(format!("unreadable: {e}")),
    };
    let sidecar = sidecar_path(path);
    let seal_text = match fs::read_to_string(&sidecar) {
        Ok(t) => t,
        Err(_) => return ArtifactState::Torn("no .crc sidecar".to_string()),
    };
    let mut parts = seal_text.split_whitespace();
    let sealed = (
        parts.next().and_then(|h| u32::from_str_radix(h, 16).ok()),
        parts.next().and_then(|n| n.parse::<u64>().ok()),
    );
    let (Some(sealed_crc), Some(sealed_len)) = sealed else {
        return ArtifactState::Torn(format!("unparseable .crc sidecar: {:?}", seal_text.trim()));
    };
    if data.len() as u64 != sealed_len {
        return ArtifactState::Torn(format!("length {} != sealed {sealed_len}", data.len()));
    }
    let actual = crc32(&data);
    if actual != sealed_crc {
        return ArtifactState::Corrupt(format!("crc {actual:08x} != sealed {sealed_crc:08x}"));
    }
    ArtifactState::Clean {
        crc: sealed_crc,
        bytes: sealed_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hprc-artifact-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Bit-at-a-time CRC-32 (IEEE, reflected, poly 0xEDB88320): the
    /// definition `crc32` must agree with.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn crc32_matches_a_bitwise_reference_at_every_length_and_offset() {
        // splitmix64 bytes: deterministic, and no dev-dependency.
        let mut state = 0x5EED_C0DE_u64;
        let data: Vec<u8> = (0..1024 + 16)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        for start in 0..16 {
            for len in 0..=1024 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn write_atomic_replaces_whole_contents_and_leaves_no_tmp() {
        let dir = tmp_dir("atomic");
        let path = dir.join("a.json");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second contents").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second contents");
        assert!(!tmp_path(&path).exists(), "tmp renamed away");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn seal_then_verify_is_clean() {
        let dir = tmp_dir("seal");
        let path = dir.join("r.json");
        let crc = seal(&path, b"{\"x\": 1}\n").unwrap();
        match verify(&path) {
            ArtifactState::Clean { crc: c, bytes } => {
                assert_eq!(c, crc);
                assert_eq!(bytes, 9);
            }
            other => panic!("expected clean, got {other}"),
        }
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn truncation_is_torn_and_bit_flips_are_corrupt() {
        let dir = tmp_dir("classify");
        let path = dir.join("r.csv");
        seal(&path, b"label,x,y\na,1,2\n").unwrap();
        // Truncate: length mismatch -> Torn.
        fs::write(&path, b"label,x,y\n").unwrap();
        assert!(matches!(verify(&path), ArtifactState::Torn(_)));
        // Same-length mutation: checksum mismatch -> Corrupt.
        fs::write(&path, b"label,x,y\nb,1,2\n").unwrap();
        assert!(matches!(verify(&path), ArtifactState::Corrupt(_)));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn missing_pieces_classify_as_missing_or_torn() {
        let dir = tmp_dir("missing");
        let path = dir.join("r.json");
        assert_eq!(verify(&path), ArtifactState::Missing);
        // Artifact without a sidecar (e.g. a pre-manifest writer).
        fs::write(&path, b"{}").unwrap();
        assert!(matches!(verify(&path), ArtifactState::Torn(_)));
        // Garbage sidecar.
        fs::write(sidecar_path(&path), b"not a seal").unwrap();
        assert!(matches!(verify(&path), ArtifactState::Torn(_)));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn resealing_identical_bytes_converges_to_clean() {
        let dir = tmp_dir("reseal");
        let path = dir.join("r.json");
        seal(&path, b"stable").unwrap();
        // Simulate a crash after the artifact rename but before the
        // sidecar update: re-seal with the same bytes must verify.
        seal(&path, b"stable").unwrap();
        assert!(verify(&path).is_clean());
        fs::remove_dir_all(dir).unwrap();
    }
}
