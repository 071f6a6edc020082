//! Structured record of what recovery did.
//!
//! Every [`CheckpointStore::open_latest`](crate::CheckpointStore::open_latest)
//! call produces a [`SalvageReport`]; domain-level recovery (the
//! crawler's durable driver) appends its own actions. The report is the
//! artifact CI uploads after a crash-consistency sweep, so it has both a
//! human rendering and a JSON export.

use consent_util::Json;

use crate::format::{Section, SectionVerdict};

/// One corrupt generation that was moved to quarantine.
#[derive(Debug, Clone)]
pub struct QuarantinedGeneration {
    /// Generation number of the quarantined file.
    pub generation: u64,
    /// One-line reason (header error or per-section summary).
    pub reason: String,
    /// Per-section verdicts (empty when the header was unreadable).
    pub verdicts: Vec<SectionVerdict>,
    /// Longest valid prefix of whole sections.
    pub valid_prefix: usize,
    /// Every individually intact section body, preserved in memory for
    /// domain-level salvage attempts.
    pub salvaged: Vec<Section>,
    /// Where the file went, relative to the store root
    /// (`quarantine/gen-NNNNNNNN.ckpt`), so that two stores with the
    /// same history report the same path.
    pub quarantine_path: Option<String>,
}

/// Structured outcome of a recovery pass.
#[derive(Debug, Clone, Default)]
pub struct SalvageReport {
    /// Generation whose data was ultimately used, if any.
    pub used_generation: Option<u64>,
    /// Corrupt generations moved to quarantine, newest first.
    pub quarantined: Vec<QuarantinedGeneration>,
    /// Human-readable log of every recovery action taken.
    pub actions: Vec<String>,
}

impl SalvageReport {
    /// True when recovery found nothing wrong (including the trivial
    /// empty-store case).
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && self.actions.is_empty()
    }

    /// Append a recovery action to the log.
    pub fn note(&mut self, action: impl Into<String>) {
        self.actions.push(action.into());
    }

    /// Record a generation moved to quarantine, with its action line.
    pub fn record_quarantine(&mut self, q: QuarantinedGeneration) {
        let path = q.quarantine_path.as_deref().unwrap_or_default();
        self.note(format!(
            "quarantined generation {} ({path}): {}",
            q.generation, q.reason
        ));
        self.quarantined.push(q);
    }

    /// Fold another report's findings into this one (used when the
    /// store-level report is extended by domain-level recovery).
    pub fn absorb(&mut self, other: SalvageReport) {
        if other.used_generation.is_some() {
            self.used_generation = other.used_generation;
        }
        self.quarantined.extend(other.quarantined);
        self.actions.extend(other.actions);
    }

    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("salvage report\n");
        match self.used_generation {
            Some(g) => out.push_str(&format!("  used generation: {g}\n")),
            None => out.push_str("  used generation: none (fresh state)\n"),
        }
        if self.is_clean() {
            out.push_str("  clean: no corruption encountered\n");
            return out;
        }
        for q in &self.quarantined {
            out.push_str(&format!(
                "  quarantined gen {} (valid prefix {}): {}\n",
                q.generation, q.valid_prefix, q.reason
            ));
            for v in &q.verdicts {
                out.push_str(&format!(
                    "    section {} [{} bytes]: {}{}\n",
                    v.name,
                    v.declared_len,
                    v.status.name(),
                    if v.detail.is_empty() {
                        String::new()
                    } else {
                        format!(" — {}", v.detail)
                    }
                ));
            }
        }
        for a in &self.actions {
            out.push_str(&format!("  action: {a}\n"));
        }
        out
    }

    /// JSON export (CI artifact format).
    pub fn to_json(&self) -> Json {
        let quarantined = self.quarantined.iter().map(|q| {
            Json::object([
                ("generation".to_string(), Json::int(q.generation as i64)),
                ("reason".to_string(), Json::str(q.reason.clone())),
                ("valid_prefix".to_string(), Json::int(q.valid_prefix as i64)),
                (
                    "quarantine_path".to_string(),
                    match &q.quarantine_path {
                        Some(p) => Json::str(p.clone()),
                        None => Json::str(""),
                    },
                ),
                (
                    "verdicts".to_string(),
                    Json::array(q.verdicts.iter().map(|v| {
                        Json::object([
                            ("section".to_string(), Json::str(v.name.clone())),
                            ("declared_len".to_string(), Json::int(v.declared_len as i64)),
                            ("status".to_string(), Json::str(v.status.name())),
                            ("detail".to_string(), Json::str(v.detail.clone())),
                        ])
                    })),
                ),
                (
                    "salvaged_sections".to_string(),
                    Json::array(q.salvaged.iter().map(|s| Json::str(s.name.clone()))),
                ),
            ])
        });
        Json::object([
            (
                "used_generation".to_string(),
                match self.used_generation {
                    Some(g) => Json::int(g as i64),
                    None => Json::int(-1),
                },
            ),
            ("clean".to_string(), Json::Bool(self.is_clean())),
            ("quarantined".to_string(), Json::array(quarantined)),
            (
                "actions".to_string(),
                Json::array(self.actions.iter().map(|a| Json::str(a.clone()))),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{SectionStatus, SectionVerdict};

    #[test]
    fn clean_report_renders_clean() {
        let r = SalvageReport::default();
        assert!(r.is_clean());
        assert!(r.render().contains("clean"));
        assert_eq!(r.to_json().get("clean").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn report_with_quarantine_round_trips_to_json() {
        let mut r = SalvageReport {
            used_generation: Some(3),
            ..Default::default()
        };
        r.quarantined.push(QuarantinedGeneration {
            generation: 4,
            reason: "capture-db corrupt".to_string(),
            verdicts: vec![SectionVerdict {
                name: "capture-db".to_string(),
                declared_len: 100,
                status: SectionStatus::Corrupt,
                detail: "crc mismatch".to_string(),
            }],
            valid_prefix: 1,
            salvaged: vec![Section::new("meta", "m")],
            quarantine_path: Some("quarantine/gen-00000004.ckpt".to_string()),
        });
        r.note("fell back to generation 3");
        assert!(!r.is_clean());
        let text = r.render();
        assert!(text.contains("quarantined gen 4"));
        assert!(text.contains("fell back"));
        let json = r.to_json();
        assert_eq!(json.get("used_generation").unwrap().as_f64(), Some(3.0));
        let q = json.get("quarantined").unwrap().at(0).unwrap();
        assert_eq!(
            q.get("verdicts")
                .unwrap()
                .at(0)
                .unwrap()
                .get("status")
                .unwrap()
                .as_str(),
            Some("corrupt")
        );
    }
}
