//! Line-preserving source scanning for the lint rules.
//!
//! The linter is deliberately token-level — no `syn`, no dependency —
//! so the rules need a view of a Rust file where comments and string
//! contents cannot produce false positives (`"panic!("` inside a test
//! fixture string is not a panic) and where `#[cfg(test)]` regions can
//! be exempted. [`view`] builds that once per file:
//!
//! * `code` — comments blanked, string/char *contents* blanked, line
//!   structure intact. Rules match tokens here.
//! * `code_strings` — comments blanked, strings kept. Registry
//!   extraction (the policy and profile `NAMES`) reads this.
//! * `raw` — the original lines; justification annotations
//!   (`// relaxed:`, `// infallible:`) are read here because they live
//!   in comments.
//! * `test_mask` — lines inside `#[cfg(test)]` / `#[test]` items,
//!   where the panic/ordering rules do not apply.

/// The per-line views of one source file (see module docs).
pub struct SourceView {
    /// Original lines.
    pub raw: Vec<String>,
    /// Comments and string/char contents blanked.
    pub code: Vec<String>,
    /// Comments blanked, strings kept.
    pub code_strings: Vec<String>,
    /// `true` for lines inside test-gated items.
    pub test_mask: Vec<bool>,
}

impl SourceView {
    /// `true` when `line` (0-based) or the contiguous comment block
    /// immediately above it carries the given annotation marker.
    pub fn has_annotation(&self, line: usize, marker: &str) -> bool {
        if self.raw[line].contains(marker) {
            return true;
        }
        let mut i = line;
        while i > 0 {
            i -= 1;
            let trimmed = self.raw[i].trim_start();
            if !(trimmed.starts_with("//") || trimmed.starts_with('*')) {
                return false;
            }
            if self.raw[i].contains(marker) {
                return true;
            }
        }
        false
    }
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u8),
}

/// Builds the stripped views for one file.
pub fn view(text: &str) -> SourceView {
    let chars: Vec<char> = text.chars().collect();
    let mut code = String::with_capacity(text.len());
    let mut code_strings = String::with_capacity(text.len());
    let mut state = State::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            code.push('\n');
            code_strings.push('\n');
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    code.push(' ');
                    code_strings.push(' ');
                    i += 1;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    code.push(' ');
                    code_strings.push(' ');
                    i += 1;
                } else if c == '"' {
                    state = State::Str;
                    code.push('"');
                    code_strings.push('"');
                } else if (c == 'r' || c == 'b') && raw_str_start(&chars, i).is_some() {
                    // r"..", r#"..."#, br"..", b"..": emit the prefix
                    // and opening quote, enter the right string state.
                    let (skip, hashes, is_raw) = raw_str_start(&chars, i).expect("checked above");
                    for &p in &chars[i..=i + skip] {
                        code.push(p);
                        code_strings.push(p);
                    }
                    state = if is_raw {
                        State::RawStr(hashes)
                    } else {
                        State::Str
                    };
                    i += skip;
                } else if c == '\'' {
                    // Char literal vs lifetime: a literal closes within
                    // a few chars; a lifetime has no closing quote.
                    if let Some(end) = char_literal_end(&chars, i) {
                        code.push('\'');
                        code_strings.push('\'');
                        for &p in &chars[i + 1..end] {
                            code.push(if p == '\n' { '\n' } else { ' ' });
                            code_strings.push(if p == '\n' { '\n' } else { p });
                        }
                        code.push('\'');
                        code_strings.push('\'');
                        i = end;
                    } else {
                        code.push(c);
                        code_strings.push(c);
                    }
                } else {
                    code.push(c);
                    code_strings.push(c);
                }
            }
            State::LineComment => {
                code.push(' ');
                code_strings.push(' ');
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    code.push_str("  ");
                    code_strings.push_str("  ");
                    i += 1;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    code.push_str("  ");
                    code_strings.push_str("  ");
                    i += 1;
                } else {
                    code.push(' ');
                    code_strings.push(' ');
                }
            }
            State::Str => {
                if c == '\\' {
                    code.push(' ');
                    code_strings.push(c);
                    if let Some(&n) = chars.get(i + 1) {
                        code.push(if n == '\n' { '\n' } else { ' ' });
                        code_strings.push(n);
                        i += 1;
                    }
                } else if c == '"' {
                    state = State::Code;
                    code.push('"');
                    code_strings.push('"');
                } else {
                    code.push(' ');
                    code_strings.push(c);
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars, i, hashes) {
                    code.push('"');
                    code_strings.push('"');
                    for _ in 0..hashes {
                        code.push('#');
                        code_strings.push('#');
                    }
                    i += hashes as usize;
                    state = State::Code;
                } else {
                    code.push(' ');
                    code_strings.push(c);
                }
            }
        }
        i += 1;
    }

    let raw: Vec<String> = text.lines().map(str::to_string).collect();
    let code: Vec<String> = code.lines().map(str::to_string).collect();
    let code_strings: Vec<String> = code_strings.lines().map(str::to_string).collect();
    let test_mask = mask_test_regions(&code);
    SourceView {
        raw,
        code,
        code_strings,
        test_mask,
    }
}

/// Detects `r`/`b`/`br`-prefixed string starts at `i`. Returns
/// `(chars up to the opening quote, hash count, is_raw)`.
fn raw_str_start(chars: &[char], i: usize) -> Option<(usize, u8, bool)> {
    // Reject when the prefix letter is the tail of an identifier
    // (`for r in ..` must not match).
    if i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_') {
        return None;
    }
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    let is_raw = chars.get(j) == Some(&'r');
    if is_raw {
        j += 1;
    }
    if j == i {
        return None;
    }
    let mut hashes = 0u8;
    if is_raw {
        while chars.get(j) == Some(&'#') && hashes < 255 {
            hashes += 1;
            j += 1;
        }
    }
    if chars.get(j) == Some(&'"') {
        Some((j - i, hashes, is_raw))
    } else {
        None
    }
}

fn closes_raw(chars: &[char], i: usize, hashes: u8) -> bool {
    (1..=hashes as usize).all(|h| chars.get(i + h) == Some(&'#'))
}

/// Finds the closing quote of a char literal starting at `i`, or
/// `None` when the `'` is a lifetime.
fn char_literal_end(chars: &[char], i: usize) -> Option<usize> {
    if chars.get(i + 1) == Some(&'\\') {
        // Escaped: scan (bounded) for the closing quote.
        (i + 3..chars.len().min(i + 12)).find(|&j| chars[j] == '\'')
    } else if chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\'') {
        Some(i + 2)
    } else {
        None
    }
}

/// Marks lines covered by `#[cfg(test)]` / `#[test]` items by brace
/// matching on the code view (string braces are already blanked).
fn mask_test_regions(code: &[String]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut line = 0;
    while line < code.len() {
        let l = &code[line];
        let is_gate =
            l.contains("#[cfg(test)]") || l.contains("#[cfg(all(test") || l.contains("#[test]");
        if !is_gate || mask[line] {
            line += 1;
            continue;
        }
        // Find the item's opening brace (or a terminating `;` for
        // brace-less forms), then match braces to the item's end.
        let mut depth = 0i32;
        let mut opened = false;
        let mut end = line;
        'scan: for (li, scan) in code.iter().enumerate().skip(line) {
            for ch in scan.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth == 0 {
                            end = li;
                            break 'scan;
                        }
                    }
                    ';' if !opened => {
                        end = li;
                        break 'scan;
                    }
                    _ => {}
                }
            }
            end = li;
        }
        for m in mask.iter_mut().take(end + 1).skip(line) {
            *m = true;
        }
        line = end + 1;
    }
    mask
}

/// Extracts the string literals of an array constant, e.g.
/// `pub const NAMES: [&str; 8] = ["a", "b", ...];`, reading the
/// strings-kept view.
pub fn extract_array_strings(view: &SourceView, ident: &str) -> Option<Vec<String>> {
    let text = view.code_strings.join("\n");
    let at = find_ident(&text, ident)?;
    let eq = at + text[at..].find('=')?;
    let open = eq + text[eq..].find('[')?;
    let close = open + text[open..].find(']')?;
    let body = &text[open + 1..close];
    let mut names = Vec::new();
    let mut rest = body;
    while let Some(q1) = rest.find('"') {
        let after = &rest[q1 + 1..];
        let q2 = after.find('"')?;
        names.push(after[..q2].to_string());
        rest = &after[q2 + 1..];
    }
    Some(names)
}

/// Extracts the variant names of `enum <name>` from a code view.
pub fn extract_enum_variants(view: &SourceView, name: &str) -> Option<Vec<String>> {
    let text = view.code.join("\n");
    let decl = format!("enum {name}");
    let at = text.find(&decl)?;
    let open = at + text[at..].find('{')?;
    let mut depth = 0i32;
    let mut end = open;
    for (off, ch) in text[open..].char_indices() {
        match ch {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    end = open + off;
                    break;
                }
            }
            _ => {}
        }
    }
    let mut variants = Vec::new();
    let mut depth_inner = 0i32;
    for line in text[open + 1..end].lines() {
        let trimmed = line.trim_start();
        if depth_inner == 0 {
            let ident: String = trimmed
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !ident.is_empty() && ident.chars().next().is_some_and(|c| c.is_uppercase()) {
                variants.push(ident);
            }
        }
        for ch in trimmed.chars() {
            match ch {
                '{' | '(' => depth_inner += 1,
                '}' | ')' => depth_inner -= 1,
                _ => {}
            }
        }
    }
    Some(variants)
}

/// Converts a CamelCase variant to the kebab-case wire/doc name — the
/// same transform `EventKind::name()` encodes.
pub fn kebab_case(variant: &str) -> String {
    let mut out = String::with_capacity(variant.len() + 4);
    for (i, c) in variant.chars().enumerate() {
        if c.is_uppercase() {
            if i > 0 {
                out.push('-');
            }
            out.extend(c.to_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// Finds `ident` at a token boundary (not inside a longer identifier).
fn find_ident(text: &str, ident: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(rel) = text[from..].find(ident) {
        let at = from + rel;
        let before_ok = at == 0
            || !text[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + ident.len();
        let after_ok = !text[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + ident.len();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked_but_lines_survive() {
        let v = view("let a = 1; // panic!(\nlet b = \"panic!(\";\n");
        assert!(!v.code[0].contains("panic"));
        assert!(!v.code[1].contains("panic"));
        assert!(
            v.code_strings[1].contains("panic!("),
            "strings kept in the registry view"
        );
        assert_eq!(v.raw.len(), v.code.len());
    }

    #[test]
    fn cfg_test_regions_are_masked() {
        let src =
            "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn x() { y.unwrap(); }\n}\nfn b() {}\n";
        let v = view(src);
        assert!(!v.test_mask[0]);
        assert!(v.test_mask[1] && v.test_mask[2] && v.test_mask[3] && v.test_mask[4]);
        assert!(!v.test_mask[5]);
    }

    #[test]
    fn char_literals_and_lifetimes_are_distinguished() {
        let v = view("fn f<'a>(x: &'a str) -> char { '\"' }\n");
        // The quote char literal must not open a string.
        assert!(v.code[0].contains("str"));
        assert!(v.code[0].ends_with('}'));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let v = view("let s = r#\"unwrap() \"#; let t = 1;\n");
        assert!(!v.code[0].contains("unwrap"));
        assert!(v.code[0].contains("let t = 1;"));
    }

    #[test]
    fn array_and_enum_extraction() {
        let v = view(
            "pub const NAMES: [&str; 2] = [\n    \"alpha\", // comment\n    \"beta\",\n];\npub enum Frame {\n    Hello { v: u8 },\n    ByeAck,\n}\n",
        );
        assert_eq!(
            extract_array_strings(&v, "NAMES").unwrap(),
            vec!["alpha", "beta"]
        );
        assert_eq!(
            extract_enum_variants(&v, "Frame").unwrap(),
            vec!["Hello", "ByeAck"]
        );
        assert_eq!(kebab_case("SimStart"), "sim-start");
    }
}
