mod tests {
    use crate::lint_check::{clippy, workspace_root};

    #[test]
    fn annotation_reason_is_mandatory() {
        let f = clippy(
            "#[expect(clippy::disallowed_types)]\n\
             pub fn f() -> std::collections::HashSet<u8> {\n\
             std::collections::HashSet::new()\n\
             }\n",
        );
        assert_eq!(f, ["1 clippy::allow_attributes_without_reason"]);
    }

    #[test]
    fn unknown_lint_id_is_malformed() {
        let f = clippy(
            "#[expect(clippy::hash_ordr, reason = \"typo\")]\n\
             pub fn f() {}\n",
        );
        assert_eq!(f, ["1 unknown_lints"]);
    }

    #[test]
    fn cfg_test_mod_span() {
        // Test code starts at `#[cfg(test)]` and ends with its module.
        let f = clippy(
            "pub mod engine {\n\
             pub fn before(x: Option<u8>) -> u8 {\n\
             x.unwrap()\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             fn helper(x: Option<u8>) -> u8 {\n\
             x.unwrap()\n\
             }\n\
             #[test]\n\
             fn t() {\n\
             assert_eq!(helper(Some(1)), 1);\n\
             }\n\
             }\n\
             }\n\
             pub fn after(x: Option<u8>) -> u8 {\n\
             x.unwrap()\n\
             }\n",
        );
        assert_eq!(f, ["3 clippy::unwrap_used", "17 clippy::unwrap_used"]);
    }

    #[test]
    fn braceless_cfg_test_item() {
        let f = clippy(
            "#[cfg(test)]\n\
             pub fn helper(x: Option<u8>) -> u8 {\n\
             x.unwrap()\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn stacked_attributes_are_skipped() {
        let f = clippy(
            "#[cfg(test)]\n\
             #[expect(dead_code, reason = \"helpers ahead of their tests\")]\n\
             mod t {\n\
             fn helper(x: Option<u8>) -> u8 {\n\
             x.unwrap()\n\
             }\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn scope_matrix() {
        // Every package opts into the workspace lint table except the
        // vendored shims and this integration-test package, which keep
        // only `unsafe_code = "forbid"`. The disallow-lists in
        // `clippy.toml` apply to all of them.
        let root = workspace_root();
        let text = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
        let members: Vec<&str> = text
            .split("members = [")
            .nth(1)
            .and_then(|rest| rest.split(']').next())
            .expect("a workspace members list")
            .split('"')
            .skip(1)
            .step_by(2)
            .collect();
        assert!(members.len() >= 10, "{members:?}");
        for m in members {
            let manifest =
                std::fs::read_to_string(root.join(m).join("Cargo.toml")).expect("member manifest");
            let opted_in = manifest.contains("[lints]\nworkspace = true");
            let outside = m.starts_with("crates/vendor/") || m == "tests";
            assert_eq!(opted_in, !outside, "{m}: workspace lint opt-in");
            if outside {
                assert!(
                    manifest.contains("[lints.rust]\nunsafe_code = \"forbid\""),
                    "{m}: unsafe code must stay forbidden"
                );
            }
        }
    }
}
