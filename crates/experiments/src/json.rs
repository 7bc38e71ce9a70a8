//! A deterministic hand-rolled JSON writer for the `BENCH_*.json`
//! artifacts (no serde in the dependency tree).
//!
//! Two properties the bench files need that ad-hoc `format!` calls kept
//! getting wrong:
//!
//! 1. **Stable field order** — fields appear exactly in emission order,
//!    so regenerated files diff cleanly against committed ones.
//! 2. **Fixed float formatting** — every `f64` goes through one
//!    fixed-precision formatter (non-finite values become `null`), so the
//!    byte output is a pure function of the values, not of shortest-
//!    round-trip heuristics.

/// Pretty-printing JSON emitter with 2-space indentation. Call sequence
/// mirrors the document structure; `finish` returns the text.
#[derive(Default)]
pub struct JsonWriter {
    out: String,
    /// One frame per open container: `true` once it has a first element.
    stack: Vec<bool>,
    /// A key was just written; the next value stays on the same line.
    after_key: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    fn newline_indent(&mut self) {
        self.out.push('\n');
        for _ in 0..self.stack.len() {
            self.out.push_str("  ");
        }
    }

    /// Separator before any element: comma for siblings, then
    /// newline+indent — unless the element follows its key.
    fn pre_element(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if let Some(has_prior) = self.stack.last_mut() {
            if *has_prior {
                self.out.push(',');
            }
            *has_prior = true;
            self.newline_indent();
        }
    }

    /// Opens `{`.
    pub fn begin_object(&mut self) -> &mut Self {
        self.pre_element();
        self.out.push('{');
        self.stack.push(false);
        self
    }

    /// Closes `}`.
    pub fn end_object(&mut self) -> &mut Self {
        let had_elements = self.stack.pop().unwrap_or(false);
        if had_elements {
            self.newline_indent();
        }
        self.out.push('}');
        self
    }

    /// Opens `[`.
    pub fn begin_array(&mut self) -> &mut Self {
        self.pre_element();
        self.out.push('[');
        self.stack.push(false);
        self
    }

    /// Closes `]`.
    pub fn end_array(&mut self) -> &mut Self {
        let had_elements = self.stack.pop().unwrap_or(false);
        if had_elements {
            self.newline_indent();
        }
        self.out.push(']');
        self
    }

    /// An object key; the next call writes its value.
    pub fn key(&mut self, name: &str) -> &mut Self {
        self.pre_element();
        self.push_escaped(name);
        self.out.push_str(": ");
        self.after_key = true;
        self
    }

    fn push_escaped(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    /// A string value (escaped).
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.pre_element();
        self.push_escaped(v);
        self
    }

    /// An unsigned integer value.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.pre_element();
        let _ = std::fmt::Write::write_fmt(&mut self.out, format_args!("{v}"));
        self
    }

    /// A boolean value.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.pre_element();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// A float at fixed precision (`prec` decimals). Non-finite values
    /// have no JSON spelling and become `null`.
    pub fn f64_prec(&mut self, v: f64, prec: usize) -> &mut Self {
        self.pre_element();
        if v.is_finite() {
            let _ = std::fmt::Write::write_fmt(&mut self.out, format_args!("{v:.prec$}"));
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// A float at the default 6-decimal fixed precision.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.f64_prec(v, 6)
    }

    /// The document text, newline-terminated.
    pub fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("bench").string("demo");
        w.key("count").u64(3);
        w.key("ratio").f64_prec(1.0 / 3.0, 3);
        w.key("bad").f64(f64::NAN);
        w.key("flag").bool(true);
        w.key("rows").begin_array();
        w.begin_object();
        w.key("name").string("a\"b\\c\nd");
        w.key("empty").begin_array();
        w.end_array();
        w.end_object();
        w.u64(7);
        w.end_array();
        w.end_object();
        w.finish()
    }

    #[test]
    fn deterministic_and_well_formed() {
        let text = doc();
        assert_eq!(text, doc(), "byte-identical across runs");
        assert_eq!(
            text,
            "{\n  \"bench\": \"demo\",\n  \"count\": 3,\n  \"ratio\": 0.333,\n  \
             \"bad\": null,\n  \"flag\": true,\n  \"rows\": [\n    {\n      \
             \"name\": \"a\\\"b\\\\c\\nd\",\n      \"empty\": []\n    },\n    7\n  ]\n}\n"
        );
    }

    #[test]
    fn floats_are_fixed_precision() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.f64(1.5).f64(100_000_000.0).f64_prec(2.0f64.sqrt(), 1);
        w.f64(f64::INFINITY);
        w.end_array();
        assert_eq!(
            w.finish(),
            "[\n  1.500000,\n  100000000.000000,\n  1.4,\n  null\n]\n"
        );
    }
}
