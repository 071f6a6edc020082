//! Appendix tables A.1 (purposes & features) and A.2 (CMP indicators).

use consent_tcf::{FEATURES, PURPOSES};
use consent_util::table::Table;
use consent_webgraph::ALL_CMPS;

/// Render Table A.1: the TCF v1 purposes and features.
pub fn table_a1() -> String {
    let mut t = Table::with_columns(&["Id", "Purpose", "Definition"]);
    t.title("Table A.1: Purposes and features (TCF v1)");
    for p in &PURPOSES {
        let mut def = p.description.to_owned();
        def.truncate(70);
        t.row(vec![p.id.0.to_string(), p.name.into(), format!("{def}…")]);
    }
    let mut f = Table::with_columns(&["Id", "Feature", "Definition"]);
    for feat in &FEATURES {
        let mut def = feat.description.to_owned();
        def.truncate(70);
        f.row(vec![
            feat.id.0.to_string(),
            feat.name.into(),
            format!("{def}…"),
        ]);
    }
    format!("{t}\n{f}")
}

/// Render Table A.2: the indicator hostnames.
pub fn table_a2() -> String {
    let mut t = Table::with_columns(&["CMP", "Unique Hostname"]);
    t.title("Table A.2: Hostnames used as CMP presence indicators");
    for cmp in ALL_CMPS {
        t.row(vec![cmp.name().into(), cmp.indicator_hostname().into()]);
    }
    t.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_a1_lists_all_purposes_and_features() {
        let s = table_a1();
        assert!(s.contains("Information storage and access"));
        assert!(s.contains("Measurement"));
        assert!(s.contains("Device linking"));
        assert!(s.contains("Precise geographic location data"));
    }

    #[test]
    fn table_a2_lists_all_indicators() {
        let s = table_a2();
        for cmp in ALL_CMPS {
            assert!(s.contains(cmp.indicator_hostname()));
            assert!(s.contains(cmp.name()));
        }
    }
}
