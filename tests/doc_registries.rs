//! The docs promise to name every entry of each registry: the sim
//! engines, the policies, the arena, the device profiles and the sysfs
//! attributes. This test reads each list from the compiled code and
//! checks that every name appears backticked on its page, so adding or
//! renaming an entry without documenting it fails tier-1. Frame types
//! are checked with their type bytes by the `protocol.rs` tests of
//! mobicore-serve; event kinds by `tests/observability_docs.rs`.

use mobicore::registry;
use mobicore_model::profiles;
use mobicore_sim::sysfs;

#[test]
fn every_registry_name_is_on_its_doc_page() {
    let lists: [(&[&str], &str, &str); 5] = [
        (
            &mobicore_sim::ENGINE_NAMES,
            "docs/simulator.md",
            "sim engine",
        ),
        (&registry::NAMES, "docs/serving.md", "policy"),
        (&registry::ARENA, "docs/tournament.md", "arena policy"),
        (&profiles::NAMES, "docs/serving.md", "device profile"),
        (&sysfs::NAMES, "docs/paper_mapping.md", "sysfs attribute"),
    ];
    for (names, page, what) in lists {
        let path = format!("{}/{page}", env!("CARGO_MANIFEST_DIR"));
        let doc = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        for name in names {
            assert!(
                doc.contains(&format!("`{name}`")),
                "{what} `{name}` is missing from {page}"
            );
        }
    }
}
