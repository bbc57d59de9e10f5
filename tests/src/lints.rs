mod tests {
    use crate::lint_check::clippy;

    #[test]
    fn hash_map_flagged_in_lib_code() {
        let f = clippy(
            "use std::collections::HashMap;\n\
             pub fn f() -> HashMap<u8, u8> {\n\
             HashMap::new()\n\
             }\n",
        );
        assert_eq!(
            f,
            [
                "1 clippy::disallowed_types",
                "2 clippy::disallowed_types",
                "3 clippy::disallowed_types"
            ]
        );
    }

    #[test]
    fn hash_map_allowed_with_annotation() {
        let f = clippy(
            "#[expect(clippy::disallowed_types, reason = \"membership-only, never iterated\")]\n\
             pub fn distinct(xs: &[u8]) -> usize {\n\
             xs.iter().map(|&x| (x, ())).collect::<std::collections::HashMap<_, _>>().len()\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn wall_clock_flagged_even_in_tests() {
        let f = clippy(
            "#[cfg(test)]\n\
             mod tests {\n\
             #[test]\n\
             fn timed() {\n\
             let _ = std::time::Instant::now();\n\
             }\n\
             }\n",
        );
        assert_eq!(f, ["5 clippy::disallowed_methods"]);
    }

    #[test]
    fn ambient_rng_flagged() {
        // The in-tree `rand` shim has no OS-seeded generator to call.
        let f = clippy(
            "pub fn f() -> u8 {\n\
             let mut rng = rand::thread_rng();\n\
             let x: u8 = rand::random();\n\
             let _ = &mut rng;\n\
             x\n\
             }\n",
        );
        assert_eq!(f, ["2 E0425", "3 E0425"]);
    }

    #[test]
    fn unit_cast_on_unit_word_flagged() {
        let f = clippy("pub fn f(bytes: u64, secs: f64) -> f64 {\n    bytes as f64 / secs\n}\n");
        assert_eq!(f, ["2 clippy::cast_precision_loss"]);
    }

    #[test]
    fn unit_cast_method_operand_flagged() {
        let f = clippy("pub fn f(d: std::time::Duration) -> f64 {\n    d.as_micros() as f64\n}\n");
        assert_eq!(f, ["2 clippy::cast_precision_loss"]);
    }

    #[test]
    fn count_cast_not_flagged() {
        // A lossless widening cast loses nothing to report.
        let f = clippy("pub fn f(v: &[u8]) -> u64 {\n    v.len() as u64\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unwrap_expect_and_macros_flagged() {
        let f = clippy(
            "pub fn f(x: Option<u8>, kind: u8) -> u8 {\n\
             let a = x.unwrap();\n\
             let b = x.expect(\"msg\");\n\
             match kind {\n\
             0 => panic!(\"boom\"),\n\
             1 => todo!(),\n\
             2 => unimplemented!(),\n\
             3 => unreachable!(),\n\
             _ => a.max(b),\n\
             }\n\
             }\n",
        );
        assert_eq!(
            f,
            [
                "2 clippy::unwrap_used",
                "3 clippy::expect_used",
                "5 clippy::panic",
                "6 clippy::todo",
                "7 clippy::unimplemented",
                "8 clippy::unreachable"
            ]
        );
    }

    #[test]
    fn variable_index_not_flagged() {
        // Indexing is not linted (clippy's `indexing_slicing` would flag
        // every index site); invariants stay as comments.
        let f = clippy("pub fn f(v: &[u8], i: usize) -> u8 {\n    v[i]\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn panic_exempt_in_cfg_test() {
        let f = clippy(
            "#[cfg(test)]\n\
             mod tests {\n\
             #[test]\n\
             fn parses() {\n\
             let x: Option<u8> = \"3\".parse().ok();\n\
             assert_eq!(x.unwrap(), x.expect(\"a number\"));\n\
             if x.is_none() {\n\
             panic!(\"not a number\");\n\
             }\n\
             }\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn malformed_annotation_is_an_error() {
        // `allow` is the wrong form (it never reports going stale), and
        // this one has no reason either. Both findings fail the lint job,
        // which denies warnings.
        let f = clippy(
            "#[allow(clippy::disallowed_types)]\n\
             pub fn f() -> std::collections::HashMap<u8, u8> {\n\
             std::collections::HashMap::new()\n\
             }\n",
        );
        assert_eq!(
            f,
            [
                "1 clippy::allow_attributes",
                "1 clippy::allow_attributes_without_reason"
            ]
        );
    }
}
