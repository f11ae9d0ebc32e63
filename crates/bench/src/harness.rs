//! The JSON string escaper, re-exported from [`btadt_types::report`] (where
//! every report binary's JSON writer, worker pool, flag parser and write
//! path live) because `benchmark/` imports it from here.

pub use btadt_types::report::json_string;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("plain"), "\"plain\"");
    }
}
