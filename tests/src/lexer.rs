mod tests {
    use crate::lint_check::clippy;

    #[test]
    fn skips_comments_and_strings() {
        let f = clippy(
            r##"// HashMap in a comment
/* HashMap in /* a nested */ block */
pub const S: &str = "HashMap in a string";
pub const R: &str = r#"raw HashMap"#;
pub const C: char = 'H';
/// Doc text naming `std::time::Instant::now()`.
pub fn f() {}
"##,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn finds_code_identifiers() {
        let f = clippy("use std::collections::HashMap;\npub type M = HashMap<u8, u8>;\n");
        assert_eq!(
            f,
            ["1 clippy::disallowed_types", "2 clippy::disallowed_types"]
        );
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        // A hazard after lifetimes and a char literal is still reached.
        let f = clippy(
            "pub fn f<'a>(x: &'a str, y: &str) -> (char, std::collections::HashSet<&'a str>) {\n\
             (y.chars().next().unwrap_or('x'), std::iter::once(x).collect())\n\
             }\n",
        );
        assert_eq!(f, ["1 clippy::disallowed_types"]);
    }

    #[test]
    fn positions_are_one_based() {
        let f = clippy(
            "pub type M = std::collections::HashMap<u8, u8>;\n\
             pub type S = std::collections::HashSet<u8>;\n",
        );
        assert_eq!(
            f,
            ["1 clippy::disallowed_types", "2 clippy::disallowed_types"]
        );
    }

    // -- Inputs that once made a token scan skip or mislex code --

    #[test]
    fn regression_nested_block_comments_terminate_correctly() {
        // The code after a nested comment survives; `/*/` does not close
        // the comment it opens.
        let f = clippy(
            "/* a /* b /* c */ */ */ pub fn f() -> u64 { std::time::Instant::now().elapsed().as_secs() }\n\
             /*/ still a comment */ pub fn g() -> u64 { std::time::Instant::now().elapsed().as_secs() }\n",
        );
        assert_eq!(
            f,
            [
                "1 clippy::disallowed_methods",
                "2 clippy::disallowed_methods"
            ]
        );
    }

    #[test]
    fn regression_zero_hash_raw_string_has_no_escapes() {
        // `r"a\"` is a complete raw string: the backslash is a literal
        // byte, so the code after it is code.
        let f = clippy(
            r#"pub const X: &str = r"a\"; pub type M = std::collections::HashMap<u8, u8>;
pub const Y: &[u8] = br"a\"; pub type S = std::collections::HashSet<u8>;
"#,
        );
        assert_eq!(
            f,
            ["1 clippy::disallowed_types", "2 clippy::disallowed_types"]
        );
    }

    #[test]
    fn regression_hashed_raw_strings_close_on_exact_hash_count() {
        let f = clippy(
            r###"pub const R: &str = r##"quote "# still inside
std::collections::HashMap"##;
pub type M = std::collections::HashMap<u8, u8>;
"###,
        );
        assert_eq!(f, ["3 clippy::disallowed_types"]);
    }

    #[test]
    fn regression_byte_string_and_byte_char_literals() {
        // Byte strings honour escapes, so `\"` does not close them; a
        // byte-char literal is one token.
        let f = clippy(
            r#"pub const B: &[u8] = b"x\"y
std::collections::HashMap";
pub const C: u8 = b'\xff'; pub type M = std::collections::HashMap<u8, u8>;
"#,
        );
        assert_eq!(f, ["3 clippy::disallowed_types"]);
    }

    #[test]
    fn regression_c_string_literals() {
        let f = clippy(
            r#"pub const S: &std::ffi::CStr = c"null\"ok
std::collections::HashMap";
pub type M = std::collections::HashMap<u8, u8>;
"#,
        );
        assert_eq!(f, ["3 clippy::disallowed_types"]);
    }
}
