//! File helpers shared by the storage crates.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::Result;

/// Replaces a small sidecar file: writes a sibling `<name>.tmp`, fsyncs
/// it and renames it over `path`, then fsyncs the directory. A crash at
/// any point leaves the old contents or the new ones, never a short file;
/// a leftover `.tmp` is never read.
pub fn replace_file(path: &Path, bytes: &[u8]) -> Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}
