//! Shared machinery for deterministic catalog generation.

use std::collections::HashSet;

use crate::entry::{FieldKind, FieldSpec, QuirkSet, TypeEntry, TypeKind};
use crate::rng::{fnv1a, DetRng};

/// Noun stems used to synthesize plausible class names.
pub const STEMS: [&str; 60] = [
    "Account", "Archive", "Atlas", "Badge", "Banner", "Basket", "Beacon", "Binder", "Bridge",
    "Buffer", "Bundle", "Cache", "Canvas", "Carrier", "Catalog", "Channel", "Charter", "Cipher",
    "Cluster", "Codec", "Column", "Compass", "Console", "Counter", "Courier", "Cursor",
    "Dialect", "Digest", "Docket", "Drawer", "Emitter", "Fabric", "Feeder", "Filter", "Folder",
    "Gateway", "Grid", "Harbor", "Hinge", "Index", "Journal", "Keyring", "Lattice", "Ledger",
    "Lens", "Locker", "Marker", "Matrix", "Mediator", "Monitor", "Mosaic", "Packet", "Palette",
    "Pipeline", "Pivot", "Portal", "Prism", "Registry", "Relay", "Vault",
];

/// Suffixes combined with [`STEMS`].
pub const SUFFIXES: [&str; 24] = [
    "Adapter", "Binding", "Broker", "Builder", "Config", "Context", "Descriptor", "Entry",
    "Event", "Factory", "Handle", "Helper", "Info", "Kit", "Manager", "Metadata", "Model",
    "Policy", "Profile", "Record", "Request", "Snapshot", "State", "Summary",
];

/// Field-name vocabulary.
pub const FIELD_NAMES: [&str; 20] = [
    "value", "name", "count", "id", "flag", "data", "label", "size", "index", "offset",
    "status", "code", "text", "stamp", "owner", "title", "weight", "score", "ratio", "token",
];

/// Deterministic generator state shared by the catalog builders.
#[derive(Debug)]
pub struct Gen {
    rng: DetRng,
    used: HashSet<String>,
    entries: Vec<TypeEntry>,
}

/// Structural recipe for one group of generated classes.
#[derive(Debug, Clone)]
pub struct GroupSpec<'a> {
    /// How many entries to emit.
    pub count: usize,
    /// Packages to rotate through.
    pub packages: &'a [&'a str],
    /// Structural kind for every entry.
    pub kind: TypeKind,
    /// Default-constructor flag.
    pub has_default_ctor: bool,
    /// Generic arity range (inclusive); sampled per entry.
    pub generic_arity: (u8, u8),
    /// Field-count range (inclusive); sampled per entry.
    pub field_count: (u8, u8),
    /// Throwable marker (Java).
    pub is_throwable: bool,
    /// Name suffix override (e.g. `Exception`); `None` uses [`SUFFIXES`].
    pub forced_suffix: Option<&'a str>,
    /// Quirks applied to every entry in the group.
    pub quirks: QuirkSet,
}

impl Gen {
    /// Fresh generator with the given seed.
    pub fn new(seed: u64) -> Gen {
        Gen {
            rng: DetRng::new(seed),
            used: HashSet::new(),
            entries: Vec::new(),
        }
    }

    /// Number of entries emitted so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Finishes generation, returning the entries.
    pub fn finish(self) -> Vec<TypeEntry> {
        self.entries
    }

    /// Emits a hand-pinned entry. Panics on duplicate names — pins are
    /// curated, so a duplicate is a programming error.
    pub fn pin(&mut self, entry: TypeEntry) {
        assert!(
            self.used.insert(entry.fqcn.clone()),
            "duplicate pinned class {}",
            entry.fqcn
        );
        self.entries.push(entry);
    }

    /// Emits a curated real class name with the given shape.
    #[allow(clippy::too_many_arguments)]
    pub fn real(
        &mut self,
        fqcn: &str,
        kind: TypeKind,
        has_default_ctor: bool,
        generic_arity: u8,
        field_count: u8,
        is_throwable: bool,
        quirks: QuirkSet,
    ) {
        let (package, simple_name) = split_fqcn(fqcn);
        let fields = self.make_fields(fqcn, field_count);
        self.pin(TypeEntry {
            fqcn: fqcn.to_string(),
            package,
            simple_name,
            kind,
            has_default_ctor,
            generic_arity,
            fields,
            is_throwable,
            quirks,
        });
    }

    /// Emits `spec.count` synthetic entries following the recipe.
    pub fn group(&mut self, spec: &GroupSpec<'_>) {
        for i in 0..spec.count {
            let package = spec.packages[i % spec.packages.len()];
            let simple_name = self.unique_simple_name(package, spec.forced_suffix);
            let fqcn = format!("{package}.{simple_name}");
            let generic_arity = self.rng.range(
                u64::from(spec.generic_arity.0),
                u64::from(spec.generic_arity.1),
            ) as u8;
            let field_count = self
                .rng
                .range(u64::from(spec.field_count.0), u64::from(spec.field_count.1))
                as u8;
            let fields = self.make_fields(&fqcn, field_count);
            self.entries.push(TypeEntry {
                fqcn: fqcn.clone(),
                package: package.to_string(),
                simple_name,
                kind: spec.kind,
                has_default_ctor: spec.has_default_ctor,
                generic_arity,
                fields,
                is_throwable: spec.is_throwable,
                quirks: spec.quirks,
            });
            self.used.insert(fqcn);
        }
    }

    fn unique_simple_name(&mut self, package: &str, forced_suffix: Option<&str>) -> String {
        loop {
            let stem = STEMS[self.rng.below(STEMS.len() as u64) as usize];
            let suffix = match forced_suffix {
                Some(s) => s,
                None => SUFFIXES[self.rng.below(SUFFIXES.len() as u64) as usize],
            };
            let mut candidate = format!("{stem}{suffix}");
            if self.used.contains(&format!("{package}.{candidate}")) {
                // Disambiguate deterministically.
                candidate = format!("{candidate}{}", self.rng.below(10_000));
            }
            let fqcn = format!("{package}.{candidate}");
            if !self.used.contains(&fqcn) {
                return candidate;
            }
        }
    }

    /// Deterministic bean fields derived from the class name.
    pub fn make_fields(&mut self, fqcn: &str, count: u8) -> Vec<FieldSpec> {
        let hash = fnv1a(fqcn.as_bytes());
        (0..count)
            .map(|i| {
                let name_index =
                    ((hash >> (i % 8)) as usize + i as usize * 7) % FIELD_NAMES.len();
                FieldSpec {
                    name: FIELD_NAMES[name_index].to_string(),
                    kind: FieldKind::from_hash(hash.rotate_left(u32::from(i) * 9 + 3)),
                }
            })
            // Field names must be unique within a bean.
            .enumerate()
            .map(|(i, mut f)| {
                if i >= FIELD_NAMES.len() {
                    f.name = format!("{}{}", f.name, i);
                }
                f
            })
            .scan(HashSet::new(), |seen, mut f| {
                while !seen.insert(f.name.clone()) {
                    f.name = format!("{}X", f.name);
                }
                Some(f)
            })
            .collect()
    }
}

/// Splits a fully-qualified name into `(package, simple)`.
pub fn split_fqcn(fqcn: &str) -> (String, String) {
    match fqcn.rsplit_once('.') {
        Some((pkg, simple)) => (pkg.to_string(), simple.to_string()),
        None => (String::new(), fqcn.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::Quirk;

    #[test]
    fn group_emits_exact_count_with_unique_names() {
        let mut gen = Gen::new(1);
        gen.group(&GroupSpec {
            count: 500,
            packages: &["a.b", "c.d"],
            kind: TypeKind::Class,
            has_default_ctor: true,
            generic_arity: (0, 0),
            field_count: (1, 6),
            is_throwable: false,
            forced_suffix: None,
            quirks: QuirkSet::empty(),
        });
        let entries = gen.finish();
        assert_eq!(entries.len(), 500);
        let names: HashSet<_> = entries.iter().map(|e| &e.fqcn).collect();
        assert_eq!(names.len(), 500);
        assert!(entries.iter().all(|e| !e.fields.is_empty()));
    }

    #[test]
    fn generation_is_deterministic() {
        let build = || {
            let mut gen = Gen::new(99);
            gen.group(&GroupSpec {
                count: 50,
                packages: &["p"],
                kind: TypeKind::Class,
                has_default_ctor: true,
                generic_arity: (0, 0),
                field_count: (0, 3),
                is_throwable: false,
                forced_suffix: Some("Exception"),
                quirks: QuirkSet::of(Quirk::JscriptHostile),
            });
            gen.finish()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn forced_suffix_applies() {
        let mut gen = Gen::new(2);
        gen.group(&GroupSpec {
            count: 10,
            packages: &["p"],
            kind: TypeKind::Class,
            has_default_ctor: true,
            generic_arity: (0, 0),
            field_count: (1, 1),
            is_throwable: true,
            forced_suffix: Some("Exception"),
            quirks: QuirkSet::empty(),
        });
        for e in gen.finish() {
            assert!(e.simple_name.ends_with("Exception"), "{}", e.fqcn);
            assert!(e.is_throwable);
        }
    }

    #[test]
    fn fields_are_unique_within_bean() {
        let mut gen = Gen::new(3);
        let fields = gen.make_fields("some.Class", 20);
        let names: HashSet<_> = fields.iter().map(|f| &f.name).collect();
        assert_eq!(names.len(), fields.len());
    }

    #[test]
    fn pin_rejects_duplicates() {
        let mut gen = Gen::new(4);
        gen.real("a.B", TypeKind::Class, true, 0, 1, false, QuirkSet::empty());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gen.real("a.B", TypeKind::Class, true, 0, 1, false, QuirkSet::empty());
        }));
        assert!(result.is_err());
    }

    #[test]
    fn split_fqcn_handles_default_package() {
        assert_eq!(split_fqcn("Foo"), (String::new(), "Foo".to_string()));
        assert_eq!(
            split_fqcn("java.lang.String"),
            ("java.lang".to_string(), "String".to_string())
        );
    }
}
