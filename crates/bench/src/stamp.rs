//! Provenance stamping for the machine-readable trajectory documents.
//!
//! `BENCH.json` and `ACCURACY.json` are the repo's perf/quality
//! trajectory formats; a trajectory is only machine-recoverable across
//! PRs when every document names the commit it measured and the schema
//! it speaks. This module provides both, plus the append-only
//! `PERF_HISTORY.json` log that strings individual runs into the
//! trajectory.

use std::path::Path;
use std::process::Command;

use cellsync_wire::Json;

/// Schema tag of `BENCH.json` (v2 added `git_commit`; v3 dropped the
/// `batch` section and `host_note`, leaving the timed kernels only).
pub const PERF_SCHEMA: &str = "cellsync-perf/3";

/// Schema tag of `ACCURACY.json` (v2 added `git_commit`; v3 added the
/// `mixtures` array of K-component mixture-cell scores; v4 dropped the
/// mixture entries' `method` and `sweeps` fields when the mixture solver
/// became the single joint QP).
pub const ACCURACY_SCHEMA: &str = "cellsync-accuracy/4";

/// Schema tag of the append-only perf history log.
pub const HISTORY_SCHEMA: &str = "cellsync-perf-history/1";

/// The git commit the working tree is at, for stamping measurement
/// documents: the `CELLSYNC_GIT_COMMIT` environment variable when set
/// (CI builds that measure an exported tree), otherwise
/// `git rev-parse HEAD` with a `-dirty` suffix when the tree has
/// uncommitted changes, otherwise `"unknown"`.
pub fn git_commit() -> String {
    if let Ok(commit) = std::env::var("CELLSYNC_GIT_COMMIT") {
        if !commit.is_empty() {
            return commit;
        }
    }
    let head = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty());
    let Some(head) = head else {
        return "unknown".to_string();
    };
    let dirty = Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| !out.stdout.is_empty())
        .unwrap_or(false);
    if dirty {
        format!("{head}-dirty")
    } else {
        head
    }
}

/// Appends `entry` to the perf history log at `path`, creating the
/// document (`cellsync-perf-history/1`: `{schema, entries: [...]}`) when
/// the file does not exist yet. Entries are kept in append order — the
/// perf trajectory across PRs, machine-recoverable from one file.
///
/// # Errors
///
/// Returns [`std::io::Error`] for filesystem failures or an unreadable
/// existing history document.
pub fn append_history(path: &Path, entry: Json) -> std::io::Result<()> {
    let mut doc = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unreadable perf history {}: {e}", path.display()),
            )
        })?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Json::Obj(vec![
            ("schema".into(), Json::Str(HISTORY_SCHEMA.into())),
            ("entries".into(), Json::Arr(Vec::new())),
        ]),
        Err(e) => return Err(e),
    };
    match &mut doc {
        Json::Obj(pairs) => {
            let entries = pairs.iter_mut().find(|(k, _)| k == "entries");
            match entries {
                Some((_, Json::Arr(items))) => items.push(entry),
                _ => pairs.push(("entries".into(), Json::Arr(vec![entry]))),
            }
        }
        _ => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "perf history root must be an object",
            ))
        }
    }
    std::fs::write(path, doc.render() + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn git_commit_prefers_env_override() {
        // Process-global env mutation: restore immediately.
        std::env::set_var("CELLSYNC_GIT_COMMIT", "abc123");
        let stamped = git_commit();
        std::env::remove_var("CELLSYNC_GIT_COMMIT");
        assert_eq!(stamped, "abc123");
        // Without the override the stamp is still non-empty (a hash,
        // possibly -dirty, or the "unknown" fallback outside a repo).
        assert!(!git_commit().is_empty());
    }

    #[test]
    fn history_appends_and_round_trips() {
        let dir = std::env::temp_dir().join(format!("cellsync-hist-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("PERF_HISTORY.json");
        let _ = std::fs::remove_file(&path);
        for i in 0..2 {
            let entry = Json::Obj(vec![
                ("git_commit".into(), Json::Str(format!("c{i}"))),
                ("median_ms".into(), Json::Num(100.0 - i as f64)),
            ]);
            append_history(&path, entry).unwrap();
        }
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(HISTORY_SCHEMA)
        );
        let entries = doc.get("entries").and_then(Json::as_array).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(
            entries[1].get("git_commit").and_then(Json::as_str),
            Some("c1")
        );
        let _ = std::fs::remove_file(&path);
    }
}
