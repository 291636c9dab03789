//! Golden catalog gate across commits: `ompfuzz evolve --quick` must write
//! exactly the checked-in `tests/golden/evolve-quick.catalog`, byte for
//! byte. The other catalog gates compare two runs of the same binary; this
//! one pins the bytes an earlier build produced, so a pure optimization
//! (engine, reducer, scheduling) that silently changes which kernels get
//! cataloged fails here. Regenerate the file only for a deliberate change
//! to what evolution produces, and say so in the change log.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_ompfuzz");

fn golden() -> String {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/evolve-quick.catalog"
    );
    std::fs::read_to_string(path).expect("golden catalog is checked in")
}

#[test]
fn evolve_quick_cli_matches_the_golden_catalog() {
    let dir = std::env::temp_dir().join(format!("ompfuzz-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let catalog = dir.join("catalog.txt");
    let out = Command::new(BIN)
        .args(["evolve", "--quick", "--catalog", catalog.to_str().unwrap()])
        .output()
        .expect("cannot run ompfuzz");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let fresh = std::fs::read_to_string(&catalog).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        fresh == golden(),
        "catalog drifted from the golden file:\n{fresh}"
    );
}
