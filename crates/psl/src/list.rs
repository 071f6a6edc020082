//! The Public Suffix List lookup engine.
//!
//! The paper normalizes every crawled hostname "to the effective
//! second-level domain using the Public Suffix List", e.g.
//! `foo.example.github.io` → `example.github.io` (§3.2). This module
//! implements that algorithm: parse the list once into a label trie, then
//! answer `public_suffix` / `registrable_domain` queries.

use crate::rules::{Rule, RuleKind};
use std::borrow::Cow;
use std::collections::HashMap;

/// A compiled Public Suffix List.
#[derive(Clone, Debug, Default)]
pub struct PublicSuffixList {
    root: Node,
    rule_count: usize,
}

#[derive(Clone, Debug, Default)]
struct Node {
    children: HashMap<String, Node>,
    /// A normal/exception rule terminates here.
    terminal: Option<RuleKind>,
    /// A wildcard rule `*.<path>` hangs off this node.
    wildcard: bool,
    /// Exceptions under a wildcard, keyed by the excepted label.
    exceptions: Vec<String>,
}

/// Result of splitting a hostname against the list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DomainParts<'a> {
    /// The public suffix, e.g. `co.uk` for `www.example.co.uk`.
    pub public_suffix: &'a str,
    /// The registrable domain (eTLD+1), e.g. `example.co.uk` — `None` if
    /// the hostname *is* a public suffix.
    pub registrable: Option<&'a str>,
}

impl PublicSuffixList {
    /// Compile a list from PSL text (the `public_suffix_list.dat` format).
    /// Invalid lines are skipped, matching how browsers consume the file.
    pub fn from_text(text: &str) -> PublicSuffixList {
        let mut psl = PublicSuffixList::default();
        for line in text.lines() {
            if let Some(rule) = Rule::parse(line) {
                psl.insert(rule);
            }
        }
        psl
    }

    /// Compile the embedded snapshot (see [`crate::snapshot`]).
    pub fn embedded() -> PublicSuffixList {
        PublicSuffixList::from_text(crate::snapshot::SNAPSHOT)
    }

    /// Number of rules successfully inserted.
    pub fn len(&self) -> usize {
        self.rule_count
    }

    /// True if the list holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rule_count == 0
    }

    fn insert(&mut self, rule: Rule) {
        match rule.kind {
            RuleKind::Normal => {
                let node = descend(&mut self.root, &rule.labels_rev);
                node.terminal = Some(RuleKind::Normal);
            }
            RuleKind::Wildcard => {
                let node = descend(&mut self.root, &rule.labels_rev);
                node.wildcard = true;
            }
            RuleKind::Exception => {
                // `!www.ck`: the exception label is the *last* element of
                // labels_rev (leftmost label of the rule).
                let (exc, path) = rule.labels_rev.split_last().expect("non-empty rule");
                let node = descend(&mut self.root, path);
                if !node.exceptions.contains(exc) {
                    node.exceptions.push(exc.clone());
                }
            }
        }
        self.rule_count += 1;
    }

    /// Length in labels of the public suffix of the lowercase host
    /// `folded`, walking its labels right to left (TLD first) in place,
    /// following the PSL algorithm:
    ///
    /// 1. The prevailing rule is the matching rule with the most labels.
    /// 2. Exception rules prevail over any other matching rule; the public
    ///    suffix is then the exception rule minus its leftmost label.
    /// 3. If no rule matches, the prevailing rule is `*` (the TLD itself).
    fn suffix_len(&self, folded: &str) -> usize {
        let mut node = &self.root;
        let mut best = 1; // implicit `*` rule
        for (depth, label) in folded.rsplit('.').enumerate() {
            // Wildcard at the current node covers this label.
            if node.wildcard {
                if node.exceptions.iter().any(|e| e == label) {
                    // Exception: public suffix is the wildcard's parent
                    // path, i.e. `depth` labels.
                    best = best.max(depth);
                } else {
                    best = best.max(depth + 1);
                }
            }
            match node.children.get(label) {
                Some(child) => {
                    if child.terminal == Some(RuleKind::Normal) {
                        best = best.max(depth + 1);
                    }
                    node = child;
                }
                None => return best,
            }
        }
        // Wildcard exactly at the end: `*.ck` does not match bare `ck`,
        // so nothing more to do here.
        best
    }

    /// Split a hostname into public suffix and registrable domain.
    ///
    /// Returns `None` for hostnames that cannot carry a registrable domain
    /// at all: empty input, a lone dot, hosts with empty labels, IPv4
    /// addresses (a host whose every label is numeric; the PSL algorithm
    /// requires hostnames), or hosts with a `:` or `[` (IPv6 literals and
    /// ports). Both parts are slices of `host`, in its case; the rules
    /// match case-insensitively. Allocates nothing unless `host` has an
    /// ASCII uppercase letter, when it matches a lowercased copy.
    ///
    /// ```
    /// use consent_psl::PublicSuffixList;
    /// let psl = PublicSuffixList::embedded();
    /// let parts = psl.split("foo.example.github.io").unwrap();
    /// assert_eq!(parts.public_suffix, "github.io");
    /// assert_eq!(parts.registrable, Some("example.github.io"));
    /// ```
    pub fn split<'a>(&self, host: &'a str) -> Option<DomainParts<'a>> {
        let host = host.strip_suffix('.').unwrap_or(host);
        // Reject IPv6 literals / ports smuggled in.
        if host.is_empty() || host.contains([':', '[']) {
            return None;
        }
        let mut labels = 0;
        let mut numeric = true;
        for label in host.split('.') {
            if label.is_empty() {
                return None;
            }
            labels += 1;
            numeric &= label.bytes().all(|b| b.is_ascii_digit());
        }
        // Reject IPv4 literals: every label numeric.
        if numeric {
            return None;
        }
        let lower;
        let folded = if host.bytes().any(|b| b.is_ascii_uppercase()) {
            lower = host.to_ascii_lowercase();
            &lower
        } else {
            host
        };
        let sfx = self.suffix_len(folded).min(labels);

        let suffix_start = byte_offset_of_last_n_labels(host, sfx);
        let public_suffix = &host[suffix_start..];
        let registrable = if labels > sfx {
            let start = byte_offset_of_last_n_labels(host, sfx + 1);
            Some(&host[start..])
        } else {
            None
        };
        Some(DomainParts {
            public_suffix,
            registrable,
        })
    }

    /// The registrable domain (eTLD+1) of `host`, lowercased — the unit the
    /// paper counts CMP adoption by. `None` when the host is itself a
    /// public suffix or not a valid hostname. Borrowed from `host` unless
    /// it has an ASCII uppercase letter.
    pub fn registrable_domain<'a>(&self, host: &'a str) -> Option<Cow<'a, str>> {
        let domain = self.split(host)?.registrable?;
        Some(if domain.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(domain.to_ascii_lowercase())
        } else {
            Cow::Borrowed(domain)
        })
    }

    /// The public suffix of `host`, lowercased.
    pub fn public_suffix(&self, host: &str) -> Option<String> {
        Some(self.split(host)?.public_suffix.to_ascii_lowercase())
    }
}

fn descend<'a>(mut node: &'a mut Node, labels: &[String]) -> &'a mut Node {
    for label in labels {
        node = node.children.entry(label.clone()).or_default();
    }
    node
}

/// Byte offset where the last `n` dot-separated labels of `s` begin.
fn byte_offset_of_last_n_labels(s: &str, n: usize) -> usize {
    let mut seen = 0;
    for (i, b) in s.bytes().enumerate().rev() {
        if b == b'.' {
            seen += 1;
            if seen == n {
                return i + 1;
            }
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny() -> PublicSuffixList {
        PublicSuffixList::from_text(
            "// test list\ncom\nuk\nco.uk\ngithub.io\n*.ck\n!www.ck\njp\n*.kawasaki.jp\n!city.kawasaki.jp\n",
        )
    }

    #[test]
    fn counts_rules() {
        let psl = tiny();
        assert_eq!(psl.len(), 9);
        assert!(!psl.is_empty());
        assert!(PublicSuffixList::from_text("// nothing\n").is_empty());
    }

    #[test]
    fn basic_splits() {
        let psl = tiny();
        assert_eq!(
            psl.registrable_domain("example.com").as_deref(),
            Some("example.com")
        );
        assert_eq!(
            psl.registrable_domain("www.example.com").as_deref(),
            Some("example.com")
        );
        assert_eq!(
            psl.registrable_domain("a.b.example.co.uk").as_deref(),
            Some("example.co.uk")
        );
        assert_eq!(
            psl.public_suffix("a.b.example.co.uk").as_deref(),
            Some("co.uk")
        );
    }

    #[test]
    fn suffix_itself_has_no_registrable() {
        let psl = tiny();
        let parts = psl.split("co.uk").unwrap();
        assert_eq!(parts.public_suffix, "co.uk");
        assert_eq!(parts.registrable, None);
        assert_eq!(psl.registrable_domain("com"), None);
    }

    #[test]
    fn private_suffix_github_io() {
        // The paper's own example: foo.example.github.io → example.github.io.
        let psl = tiny();
        assert_eq!(
            psl.registrable_domain("foo.example.github.io").as_deref(),
            Some("example.github.io")
        );
    }

    #[test]
    fn wildcard_and_exception() {
        let psl = tiny();
        // *.ck: "anything.ck" is a public suffix.
        assert_eq!(psl.registrable_domain("foo.ck"), None);
        assert_eq!(
            psl.registrable_domain("bar.foo.ck").as_deref(),
            Some("bar.foo.ck")
        );
        // !www.ck: www.ck IS registrable.
        assert_eq!(psl.registrable_domain("www.ck").as_deref(), Some("www.ck"));
        assert_eq!(
            psl.registrable_domain("sub.www.ck").as_deref(),
            Some("www.ck")
        );
        // Japanese geo wildcard with exception.
        assert_eq!(
            psl.registrable_domain("city.kawasaki.jp").as_deref(),
            Some("city.kawasaki.jp")
        );
        assert_eq!(psl.registrable_domain("foo.kawasaki.jp"), None);
        assert_eq!(
            psl.registrable_domain("bar.foo.kawasaki.jp").as_deref(),
            Some("bar.foo.kawasaki.jp")
        );
    }

    #[test]
    fn unknown_tld_uses_star_rule() {
        // No rule matches => prevailing rule is '*': TLD is the suffix.
        let psl = tiny();
        assert_eq!(
            psl.registrable_domain("example.zz").as_deref(),
            Some("example.zz")
        );
        assert_eq!(psl.registrable_domain("zz"), None);
    }

    #[test]
    fn rejects_invalid_hosts() {
        let psl = tiny();
        assert_eq!(psl.split(""), None);
        assert_eq!(psl.split("."), None);
        assert_eq!(psl.split("a..b"), None);
        assert_eq!(psl.split("192.168.0.1"), None);
        assert_eq!(psl.split("[::1]"), None);
    }

    #[test]
    fn case_insensitive_and_trailing_dot() {
        let psl = tiny();
        assert_eq!(
            psl.registrable_domain("WWW.Example.COM.").as_deref(),
            Some("example.com")
        );
    }

    #[test]
    fn embedded_snapshot_loads() {
        let psl = PublicSuffixList::embedded();
        assert!(psl.len() > 50);
        assert_eq!(
            psl.registrable_domain("news.bbc.co.uk").as_deref(),
            Some("bbc.co.uk")
        );
        assert_eq!(
            psl.registrable_domain("cdn.cookielaw.org").as_deref(),
            Some("cookielaw.org")
        );
        assert_eq!(
            psl.registrable_domain("quantcast.mgr.consensu.org")
                .as_deref(),
            Some("consensu.org")
        );
    }

    /// Labels the generated hosts are made of: plain and private
    /// suffixes, the embedded list's wildcard (`*.ck`, `*.kawasaki.jp`)
    /// and exception (`!www.ck`, `!city.kawasaki.jp`) rules, unknown
    /// labels, empty and all-digit labels, and `:` and `[`.
    const LABELS: [&str; 20] = [
        "com", "co", "uk", "github", "io", "ck", "www", "jp", "kawasaki", "city", "example",
        "cedifogu", "zz", "", "192", "0", "a:8080", "[", "Www", "CiTy",
    ];

    /// True if `part` is a suffix of `host` that starts at a label.
    fn dot_aligned_suffix(host: &str, part: &str) -> bool {
        host.strip_suffix(part)
            .is_some_and(|rest| rest.is_empty() || rest.ends_with('.'))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_048))]

        #[test]
        fn prop_split_matches_the_lowercased_host(
            picks in proptest::collection::vec(0usize..LABELS.len(), 0..6),
            upper: u64,
            trailing_dot: bool,
        ) {
            let psl = PublicSuffixList::embedded();
            let mut host = picks.iter().map(|&i| LABELS[i]).collect::<Vec<_>>().join(".");
            // Mixed case: uppercase the letters whose bit is set.
            host = host
                .char_indices()
                .map(|(i, c)| if upper >> (i % 64) & 1 == 1 { c.to_ascii_uppercase() } else { c })
                .collect();
            if trailing_dot {
                host.push('.');
            }

            let bare = host.strip_suffix('.').unwrap_or(&host);
            let refused = bare.is_empty()
                || bare.split('.').any(str::is_empty)
                || bare.split('.').all(|l| l.bytes().all(|b| b.is_ascii_digit()))
                || bare.contains([':', '[']);
            let parts = psl.split(&host);
            prop_assert_eq!(parts.is_none(), refused, "{:?}: {:?}", host, parts);
            let Some(parts) = parts else { return Ok(()) };

            let lower = host.to_ascii_lowercase();
            let folded = psl.split(&lower).expect("the lowercased host splits too");
            prop_assert_eq!(parts.public_suffix.to_ascii_lowercase(), folded.public_suffix);
            prop_assert_eq!(
                parts.registrable.map(str::to_ascii_lowercase),
                folded.registrable.map(str::to_owned)
            );
            prop_assert!(dot_aligned_suffix(bare, parts.public_suffix), "{:?}", parts);
            if let Some(registrable) = parts.registrable {
                prop_assert!(dot_aligned_suffix(bare, registrable), "{:?}", parts);
                prop_assert!(
                    dot_aligned_suffix(registrable, parts.public_suffix)
                        && registrable.len() > parts.public_suffix.len(),
                    "{:?}",
                    parts
                );
            }
        }
    }
}
