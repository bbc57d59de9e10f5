mod tests {
    use crate::lint_check::clippy;

    #[test]
    fn import_alias_resolution() {
        // Clippy resolves paths, so a renamed import is still the
        // disallowed item, and a module import reaches its functions.
        let f = clippy(
            "use std::sync::{mpsc, Mutex as Lock};\n\
             pub fn f() -> Lock<u32> {\n\
             let (tx, rx) = mpsc::channel();\n\
             let _ = tx.send(1);\n\
             Lock::new(rx.recv().unwrap_or_default())\n\
             }\n",
        );
        assert_eq!(
            f,
            [
                "1 clippy::disallowed_types",
                "2 clippy::disallowed_types",
                "3 clippy::disallowed_methods",
                "5 clippy::disallowed_types"
            ]
        );
    }
}
