mod tests {
    use crate::lint_check::clippy;

    #[test]
    fn fn_signature_and_let_bindings() {
        let f = clippy(
            "use std::collections::BTreeMap;\n\
             pub fn f(m: &std::collections::HashMap<u8, u8>) -> usize {\n\
             let n: std::collections::HashSet<u8> = m.keys().copied().collect();\n\
             let t: BTreeMap<u8, u8> = BTreeMap::new();\n\
             n.len() + t.len()\n\
             }\n",
        );
        assert_eq!(
            f,
            ["2 clippy::disallowed_types", "3 clippy::disallowed_types"]
        );
    }

    #[test]
    fn closure_params_and_body() {
        let f = clippy(
            "pub fn f(v: &[u64]) -> usize {\n\
             let size = |s: &std::collections::HashSet<u64>| s.len();\n\
             let t: Vec<_> = v.iter().map(|&x| (x as f64, std::time::Instant::now())).collect();\n\
             size(&v.iter().copied().collect()) + t.len()\n\
             }\n",
        );
        assert_eq!(
            f,
            [
                "2 clippy::disallowed_types",
                "3 clippy::cast_precision_loss",
                "3 clippy::disallowed_methods"
            ]
        );
    }

    #[test]
    fn generic_fn_and_turbofish() {
        let f = clippy(
            "pub fn f<T: Ord + std::hash::Hash>(v: Vec<T>) -> usize {\n\
             v.into_iter().collect::<std::collections::HashSet<_>>().len()\n\
             }\n",
        );
        assert_eq!(f, ["2 clippy::disallowed_types"]);
    }

    #[test]
    fn if_condition_does_not_eat_block_as_struct_lit() {
        // The condition and both branches are reached.
        let f = clippy(
            "pub fn f(q: Option<u8>) -> u8 {\n\
             if q.unwrap() > 0 {\n\
             q.expect(\"checked\")\n\
             } else {\n\
             panic!(\"empty\")\n\
             }\n\
             }\n",
        );
        assert_eq!(
            f,
            [
                "2 clippy::unwrap_used",
                "3 clippy::expect_used",
                "5 clippy::panic"
            ]
        );
    }

    #[test]
    fn struct_literal_in_expr_position() {
        let f = clippy(
            "pub struct Ev {\n\
             pub at: std::time::Instant,\n\
             pub seq: u64,\n\
             }\n\
             pub fn f() -> Ev {\n\
             Ev { at: std::time::Instant::now(), seq: 0 }\n\
             }\n",
        );
        assert_eq!(f, ["6 clippy::disallowed_methods"]);
    }

    #[test]
    fn for_loop_iter_and_body() {
        let f = clippy(
            "pub fn f(m: &std::collections::BTreeMap<u64, Option<u64>>) -> u64 {\n\
             let mut sum = 0;\n\
             for k in m.keys().collect::<std::collections::HashSet<_>>() {\n\
             sum += m.get(k).copied().flatten().unwrap();\n\
             }\n\
             sum\n\
             }\n",
        );
        assert_eq!(f, ["3 clippy::disallowed_types", "4 clippy::unwrap_used"]);
    }

    #[test]
    fn use_tree_flattening_with_aliases() {
        let f = clippy(
            "use std::{collections::{BTreeMap, HashMap as Map}, sync::{Mutex as Mx}};\n\
             pub fn f() -> (BTreeMap<u8, u8>, Map<u8, u8>, Mx<u8>) {\n\
             (BTreeMap::new(), Map::new(), Mx::new(0))\n\
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
    fn impl_methods_are_visited() {
        // Inherent and trait methods alike.
        let f = clippy(
            "pub struct Drive(Option<u64>);\n\
             impl Drive {\n\
             pub fn pos(&self) -> u64 {\n\
             self.0.unwrap()\n\
             }\n\
             }\n\
             impl Default for Drive {\n\
             fn default() -> Self {\n\
             Drive(Some(std::time::Instant::now().elapsed().as_secs()))\n\
             }\n\
             }\n",
        );
        assert_eq!(f, ["4 clippy::unwrap_used", "9 clippy::disallowed_methods"]);
    }

    #[test]
    fn match_arms_parse_bodies() {
        // Expression arms and block arms alike.
        let f = clippy(
            "pub fn f(x: Option<u64>) -> u64 {\n\
             match x {\n\
             Some(v) => v.checked_add(1).unwrap(),\n\
             None => {\n\
             panic!(\"none\")\n\
             }\n\
             }\n\
             }\n",
        );
        assert_eq!(f, ["3 clippy::unwrap_used", "5 clippy::panic"]);
    }
}
