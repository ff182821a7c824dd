//! The workspace's dependency-free JSON emitter (the workspace has no
//! external dependencies): an incremental object builder plus array and
//! string helpers.

/// An incremental JSON object builder — the workspace's one
/// machine-readable emitter, shared by the `mcpm --json` output, the
/// explorer reports, the service responses and the repository
/// benchmark, so every document speaks the same format.
///
/// Values passed to [`JsonObj::num`] must render as valid JSON numbers
/// (finite floats, integers); strings are escaped via [`json_string`].
#[derive(Debug, Clone)]
pub struct JsonObj {
    buf: String,
    empty: bool,
}

impl JsonObj {
    /// An empty object (`{}` until fields are added).
    #[must_use]
    pub fn new() -> Self {
        JsonObj {
            buf: String::from("{"),
            empty: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.empty {
            self.buf.push(',');
        }
        self.empty = false;
        self.buf.push_str(&json_string(key));
        self.buf.push(':');
    }

    /// Adds an escaped string field.
    #[must_use]
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.buf.push_str(&json_string(value));
        self
    }

    /// Adds a numeric field (the caller guarantees `value`'s `Display`
    /// output is a valid JSON number — Rust's `f64` Display is, for
    /// finite values, and is deterministic across platforms).
    #[must_use]
    pub fn num(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        use std::fmt::Write as _;
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a boolean field.
    #[must_use]
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a pre-rendered JSON value (nested object or array) verbatim.
    #[must_use]
    pub fn raw(mut self, key: &str, raw_json: &str) -> Self {
        self.key(key);
        self.buf.push_str(raw_json);
        self
    }

    /// Closes the object and returns the JSON text.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObj {
    fn default() -> Self {
        JsonObj::new()
    }
}

/// Joins pre-rendered JSON values into a JSON array.
#[must_use]
pub fn json_array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

/// Escapes `s` as a JSON string literal.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn json_obj_builds_nested_documents() {
        let inner = JsonObj::new().str("k", "v").finish();
        let doc = JsonObj::new()
            .num("n", 3)
            .bool("flag", true)
            .raw("rows", &json_array([inner.clone(), inner]))
            .finish();
        assert_eq!(
            doc,
            "{\"n\":3,\"flag\":true,\"rows\":[{\"k\":\"v\"},{\"k\":\"v\"}]}"
        );
        assert_eq!(JsonObj::new().finish(), "{}");
        assert_eq!(json_array(Vec::<String>::new()), "[]");
    }

    #[test]
    fn json_floats_render_as_plain_numbers() {
        let doc = JsonObj::new().num("x", 0.25f64).num("y", 12.0f64).finish();
        assert_eq!(doc, "{\"x\":0.25,\"y\":12}");
    }
}
