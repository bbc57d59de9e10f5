mod tests {
    use crate::lint_check::clippy;

    #[test]
    fn total_cmp_is_silent() {
        let f = clippy("pub fn f(v: &mut [f64]) {\n    v.sort_by(|a, b| a.total_cmp(b));\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn partial_cmp_definition_is_silent() {
        // Implementing `PartialOrd` defines partial_cmp without unwrapping
        // it; only `partial_cmp(..).unwrap()` is a partial order in use.
        let f = clippy(
            "use std::cmp::Ordering;\n\
             #[derive(PartialEq)]\n\
             pub struct S(pub u64);\n\
             impl PartialOrd for S {\n\
             fn partial_cmp(&self, o: &S) -> Option<Ordering> {\n\
             Some(self.0.cmp(&o.0))\n\
             }\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn sort_unstable_with_comparator_flagged() {
        let f = clippy("pub fn f(v: &mut [u64]) {\n    v.sort_unstable_by(|a, b| b.cmp(a));\n}\n");
        assert_eq!(f, ["2 clippy::disallowed_methods"]);
        // Plain sort_unstable on an `Ord` type is total: equal elements
        // are indistinguishable, so their order cannot show.
        let f = clippy("pub fn f(v: &mut [u64]) {\n    v.sort_unstable();\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn float_sort_key_flagged() {
        // `f64` is not `Ord`: the compiler rejects the key.
        let f = clippy("pub fn f(v: &mut [u64]) {\n    v.sort_by_key(|x| *x as f64);\n}\n");
        assert_eq!(f, ["2 E0277"]);
        // Integer keys are fine.
        let f = clippy("pub fn f(v: &mut [(u64, u64)]) {\n    v.sort_by_key(|x| (x.0, x.1));\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn binary_heap_of_floats_flagged() {
        let f = clippy(
            "use std::collections::BinaryHeap;\n\
             pub fn top(xs: &[(f64, u64)]) -> Option<(f64, u64)> {\n\
             let mut heap = BinaryHeap::new();\n\
             for &x in xs {\n\
             heap.push(x);\n\
             }\n\
             heap.pop()\n\
             }\n",
        );
        assert_eq!(f, ["5 E0277", "7 E0599"]);
        let f = clippy(
            "use std::collections::BinaryHeap;\n\
             pub fn top(xs: &[(u64, u64)]) -> Option<(u64, u64)> {\n\
             let mut heap = BinaryHeap::new();\n\
             for &x in xs {\n\
             heap.push(x);\n\
             }\n\
             heap.pop()\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn primitives_flagged_outside_par_module() {
        let f = clippy("pub fn f() -> std::sync::Mutex<u8> {\n    std::sync::Mutex::new(0)\n}\n");
        assert_eq!(
            f,
            ["1 clippy::disallowed_types", "2 clippy::disallowed_types"]
        );
        let f = clippy("pub fn f() {\n    std::thread::spawn(|| {});\n}\n");
        assert_eq!(f, ["2 clippy::disallowed_methods"]);
    }

    #[test]
    fn par_module_is_exempt_from_primitive_scan() {
        // The fork-join module (`core/src/par.rs`) states its exemption
        // once, as a module-level expect.
        let f = clippy(
            "mod par {\n\
             #![expect(\n\
             clippy::disallowed_types,\n\
             clippy::disallowed_methods,\n\
             reason = \"the fork-join module owns the threads\"\n\
             )]\n\
             use std::sync::{mpsc, Mutex};\n\
             pub fn f() -> Mutex<u32> {\n\
             let (tx, rx) = mpsc::channel::<u32>();\n\
             let _ = tx.send(1);\n\
             Mutex::new(rx.recv().unwrap_or_default())\n\
             }\n\
             }\n\
             pub use par::f;\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn aliased_primitive_is_caught() {
        // Clippy resolves the alias, so every use of `Lock` is the
        // disallowed `Mutex`.
        let f = clippy(
            "use std::sync::Mutex as Lock;\n\
             pub fn f() -> Lock<u8> {\n\
             Lock::new(0)\n\
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
    fn shared_mutable_capture_in_spawn_flagged_even_in_par_module() {
        // `RefCell` is not `Sync`: the compiler rejects sharing it with a
        // worker, whatever exemption the module states.
        let f = clippy(
            "mod par {\n\
             #![expect(\n\
             clippy::disallowed_methods,\n\
             reason = \"the fork-join module owns the threads\"\n\
             )]\n\
             use std::cell::RefCell;\n\
             pub fn f(n: u64) -> u64 {\n\
             let cell = RefCell::new(n);\n\
             std::thread::scope(|s| {\n\
             s.spawn(|| *cell.borrow_mut() += 1);\n\
             });\n\
             cell.into_inner()\n\
             }\n\
             }\n\
             pub use par::f;\n",
        );
        assert_eq!(f, ["10 E0277"]);
    }

    #[test]
    fn arrival_order_drain_flagged_everywhere() {
        // Library and test code alike.
        let f = clippy(
            "use std::sync::mpsc::Receiver;\n\
             pub fn drain(rx: &Receiver<u32>) -> u32 {\n\
             rx.try_iter().sum()\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             fn poll(rx: &std::sync::mpsc::Receiver<u32>) -> Option<u32> {\n\
             rx.try_recv().ok()\n\
             }\n\
             #[test]\n\
             fn polls() {\n\
             let _ = poll;\n\
             }\n\
             }\n",
        );
        assert_eq!(
            f,
            [
                "3 clippy::disallowed_methods",
                "8 clippy::disallowed_methods"
            ]
        );
    }

    #[test]
    fn counted_recv_loop_is_silent() {
        let f = clippy(
            "use std::sync::mpsc::Receiver;\n\
             pub fn counted(rx: &Receiver<u32>, n: usize) -> Vec<u32> {\n\
             (0..n).map(|_| rx.recv().unwrap_or_default()).collect()\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allow_annotation_suppresses_par_contract() {
        let f = clippy(
            "#[expect(\n\
             clippy::disallowed_methods,\n\
             reason = \"per-seed fork-join with deterministic join order\"\n\
             )]\n\
             pub fn run(seeds: &[u64]) -> Vec<u64> {\n\
             std::thread::scope(|s| {\n\
             let hs: Vec<_> = seeds.iter().map(|&x| s.spawn(move || x * 2)).collect();\n\
             hs.into_iter().map(|h| h.join().unwrap_or_default()).collect()\n\
             })\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
