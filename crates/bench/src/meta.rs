//! Where a bench datapoint was measured: host name and git revision,
//! recorded so numbers taken on different machines or revisions are
//! never compared by accident.

use std::path::Path;

/// The host name, or `unknown` when neither the kernel nor `HOSTNAME`
/// names the host.
pub fn host_name() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .ok()
        .or_else(|| std::env::var("HOSTNAME").ok())
        .map(|h| h.trim().to_string())
        .filter(|h| !h.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the git repository enclosing `dir`, read
/// from its `.git` directory so no process is started. `None` outside a
/// git checkout.
pub fn git_rev(dir: &Path) -> Option<String> {
    let git = dir
        .ancestors()
        .map(|d| d.join(".git"))
        .find(|g| g.is_dir())?;
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rev_is_read_from_loose_and_packed_refs() {
        let root = std::env::temp_dir().join(format!("deepum-meta-{}", std::process::id()));
        let git = root.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        let nested = root.join("a/b");
        std::fs::create_dir_all(&nested).unwrap();

        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(git.join("packed-refs"), "# pack\nbeef refs/heads/main\n").unwrap();
        assert_eq!(git_rev(&nested).as_deref(), Some("beef"));
        std::fs::write(git.join("refs/heads/main"), "cafe\n").unwrap();
        assert_eq!(git_rev(&root).as_deref(), Some("cafe"));
        std::fs::write(git.join("HEAD"), "f00d\n").unwrap();
        assert_eq!(git_rev(&nested).as_deref(), Some("f00d"));

        std::fs::remove_dir_all(&root).unwrap();
    }
}
