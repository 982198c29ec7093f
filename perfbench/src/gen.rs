//! Seeded input generators. Every input the program sees is made here from
//! the run's `--seed`; nothing is read from the repository's own sources,
//! so later code changes cannot change the inputs.
//!
//! * [`mir_variant`]: a labelled corpus entry plus uncalled clean padding
//!   functions with run-unique names, for the serve workloads.
//! * [`rust_tree`]: a Rust source tree with counted unsafe usages of each
//!   Table-1 form and a counted set of functions inside the lowerer's
//!   straight-line subset, for `corpus-batch` and the `serve-hit` manifest.

use std::fmt::Write as _;
use std::path::Path;

use crate::util::Rng;

/// Padding sizes (uncalled clean functions per program) of the serve
/// workloads' size family. Every round sends each corpus entry once at
/// each size, so the mix is the same for every seed.
pub const SIZE_FAMILY: [usize; 4] = [2, 4, 8, 16];

/// A fixed-width tag unique to one generated request within one run.
pub fn tag(seed: u64, index: u64) -> String {
    format!("{:06x}{:07x}", seed & 0xFF_FFFF, index & 0xFFF_FFFF)
}

/// Name prefix of every padding function; a diagnostic inside one means
/// padding changed a verdict.
pub const PAD_PREFIX: &str = "pad_";

/// `source` followed by `pads` uncalled, statically clean functions whose
/// names carry `tag`, so the program text (and the service's cache key)
/// is new for every tag.
pub fn mir_variant(source: &str, pads: usize, tag: &str, rng: &mut Rng) -> String {
    let mut out = String::with_capacity(source.len() + pads * 330);
    out.push_str(source);
    for k in 0..pads {
        let a = rng.range(100, 999);
        let b = rng.range(100, 999);
        let _ = write!(
            out,
            "\nfn {PAD_PREFIX}{tag}_{k:02}(_1 as x: int) -> int {{\n    \
             let _2 as a: int;\n    let _3 as r: &int;\n    let _4 as b: int;\n\n    \
             bb0: {{\n        StorageLive(_2);\n        _2 = _1 + const {a};\n        \
             StorageLive(_3);\n        _3 = &_2;\n        StorageLive(_4);\n        \
             _4 = (*_3) * const {b};\n        _0 = _4 - _1;\n        StorageDead(_4);\n        \
             StorageDead(_3);\n        StorageDead(_2);\n        return;\n    }}\n}}\n"
        );
    }
    out
}

/// Shape of a generated Rust tree.
#[derive(Debug, Clone, Copy)]
pub struct TreeSpec {
    pub files: usize,
    /// Functions per file inside the lowerer's straight-line subset.
    pub lowerable: usize,
    /// Extra statements in each skipped function's loop body: source bytes
    /// the scanner and lowerer must read that never reach the manifest.
    pub filler: usize,
}

/// The tree `corpus-batch` ingests and checks.
pub const BATCH_TREE: TreeSpec = TreeSpec {
    files: 48,
    lowerable: 6,
    filler: 600,
};

/// The tree behind the `serve-hit` manifest.
pub const SERVE_TREE: TreeSpec = TreeSpec {
    files: 8,
    lowerable: 6,
    filler: 4,
};

/// What the generator planted, counted as it wrote it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Planted {
    pub files: usize,
    pub bytes: usize,
    /// Functions written inside the lowerable subset.
    pub lowerable: usize,
    /// Functions written outside it (each must be skipped).
    pub skipped: usize,
    /// Unsafe usages by Table-1 form.
    pub blocks: usize,
    pub functions: usize,
    pub traits: usize,
    pub impls: usize,
}

impl Planted {
    pub fn unsafe_total(&self) -> usize {
        self.blocks + self.functions + self.traits + self.impls
    }
}

/// One generated source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceFile {
    /// Root-relative, `/`-separated.
    pub path: String,
    pub text: String,
}

/// Generates the tree for `spec` from `seed`.
pub fn rust_tree(seed: u64, spec: TreeSpec) -> (Vec<SourceFile>, Planted) {
    let mut rng = Rng::new(seed ^ 0x7EE5);
    let mut planted = Planted::default();
    let mut files = Vec::with_capacity(spec.files);
    for f in 0..spec.files {
        let salt = rng.range(0x1000, 0xFFFF);
        let mut items: Vec<String> = Vec::new();
        let mut lowerable_names: Vec<String> = Vec::new();
        for i in 0..spec.lowerable {
            let name = format!("lw_{salt:04x}_{i:02}");
            let k = rng.range(100, 999);
            let k2 = rng.range(100, 999);
            // Four straight-line shapes in a fixed rotation: arithmetic, a
            // call into an earlier function of the same file, a shared
            // borrow read back through `*`, and an explicit `drop`.
            let body = match (i + f) % 4 {
                0 => format!("    let y = x + {k};\n    let z = y * {k2};\n    z\n"),
                1 if !lowerable_names.is_empty() => {
                    let callee = &lowerable_names[rng.below(lowerable_names.len() as u64) as usize];
                    format!("    let y = {callee}(x);\n    let z = y - {k};\n    z\n")
                }
                2 => format!("    let r = &x;\n    let y = *r + {k};\n    y\n"),
                _ => format!("    let v = x - {k};\n    let w = v;\n    drop(v);\n    w\n"),
            };
            items.push(format!("pub fn {name}(x: u64) -> u64 {{\n{body}}}\n"));
            lowerable_names.push(name);
            planted.lowerable += 1;
        }
        let filler: String = (0..spec.filler)
            .map(|j| {
                format!(
                    "        acc = acc.wrapping_add(i * {});\n",
                    100 + (j * 37) % 900
                )
            })
            .collect();
        // Four functions outside the subset, one per skip reason family.
        let k = rng.range(100, 999);
        items.push(format!(
            "pub fn cf_{salt:04x}(x: u64) -> u64 {{\n    let mut acc = x;\n    let mut i = 0;\n    \
             while i < {k} {{\n{filler}        i += 1;\n    }}\n    acc\n}}\n"
        ));
        items.push(format!(
            "pub fn gen_{salt:04x}<T: Copy>(v: T) -> T {{\n    let w = v;\n    w\n}}\n"
        ));
        items.push(format!(
            "pub fn mac_{salt:04x}(x: u64) -> String {{\n    let s = format!(\"{{}}-{k}\", x);\n    s\n}}\n"
        ));
        items.push(format!(
            "pub fn clo_{salt:04x}(x: u64) -> u64 {{\n    let f = |y: u64| y + {k};\n    f(x)\n}}\n"
        ));
        planted.skipped += 4;
        // Unsafe usages: two blocks (one raw-pointer write, one foreign
        // call), one unsafe fn, one unsafe trait, one unsafe impl. The
        // functions carrying them branch, so none of them lowers.
        items.push(format!(
            "pub fn store_{salt:04x}(p: *mut u64, x: u64) {{\n    if x > {k} {{\n        \
             unsafe {{\n            *p = x;\n        }}\n    }}\n}}\n"
        ));
        items.push(format!(
            "pub fn ffi_{salt:04x}(x: i32) -> i32 {{\n    if x < 0 {{\n        return 0;\n    }}\n    \
             unsafe {{ libc::abs(x) }}\n}}\n"
        ));
        items.push(format!(
            "pub unsafe fn peek_{salt:04x}(p: *const u64, n: usize) -> u64 {{\n    if n > {k} {{\n        \
             return *p.add(n);\n    }}\n    0\n}}\n"
        ));
        items.push(format!("pub unsafe trait Marker{salt:04x} {{}}\n"));
        items.push(format!(
            "pub struct Handle{salt:04x}(*mut u8);\nunsafe impl Send for Handle{salt:04x} {{}}\n"
        ));
        planted.skipped += 3;
        planted.blocks += 2;
        planted.functions += 1;
        planted.traits += 1;
        planted.impls += 1;

        rng.shuffle(&mut items);
        let mut text = format!("//! Generated module {f}.\n\n");
        for item in &items {
            text.push_str(item);
            text.push('\n');
        }
        planted.bytes += text.len();
        planted.files += 1;
        files.push(SourceFile {
            path: format!("src/m{}/f{f:03}.rs", f % 4),
            text,
        });
    }
    (files, planted)
}

/// Writes `files` under `root`, replacing whatever was there.
pub fn write_tree(root: &Path, files: &[SourceFile]) -> std::io::Result<()> {
    if root.exists() {
        std::fs::remove_dir_all(root)?;
    }
    for f in files {
        let path = root.join(&f.path);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, &f.text)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = rust_tree(11, BATCH_TREE);
        let b = rust_tree(11, BATCH_TREE);
        assert_eq!(a, b);
        let c = rust_tree(12, BATCH_TREE);
        assert_ne!(a.0, c.0);
        assert_eq!(
            a.1.lowerable, c.1.lowerable,
            "counts do not depend on the seed"
        );
        let v1 = mir_variant("fn main() -> int {}", 4, &tag(3, 9), &mut Rng::new(5));
        let v2 = mir_variant("fn main() -> int {}", 4, &tag(3, 9), &mut Rng::new(5));
        assert_eq!(v1, v2);
    }

    #[test]
    fn ingest_finds_what_the_generator_planted() {
        let root = std::env::temp_dir().join(format!("perfbench-gen-{}", std::process::id()));
        let (files, planted) = rust_tree(3, SERVE_TREE);
        write_tree(&root, &files).unwrap();
        let manifest = rstudy_ingest::ingest(&root, "t").unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        let json = crate::util::Json::parse(&manifest.to_json()).unwrap();
        crate::check::manifest_counts(&json, &planted).unwrap();
    }

    #[test]
    fn tags_are_fixed_width_and_unique() {
        assert_eq!(tag(1, 2).len(), tag(0xABCDEF, 0xFFF_FFFF).len());
        assert_ne!(tag(1, 2), tag(1, 3));
    }

    #[test]
    fn padding_is_valid_mir_and_keeps_the_verdict() {
        use rstudy_core::suite::DetectorSuite;
        let suite = DetectorSuite::new().with_jobs(1);
        for entry in rstudy_corpus::all_entries() {
            let text = mir_variant(entry.source, SIZE_FAMILY[3], &tag(1, 1), &mut Rng::new(2));
            let program = rstudy_mir::parse::parse_program(&text).expect("variant parses");
            rstudy_mir::validate::validate_program(&program).expect("variant validates");
            let report = suite.check_program(&program);
            let mut found: Vec<&str> = report
                .diagnostics()
                .iter()
                .map(|d| d.bug_class.code())
                .collect();
            found.sort_unstable();
            found.dedup();
            let mut want: Vec<&str> = entry.static_bugs.to_vec();
            want.sort_unstable();
            want.dedup();
            assert_eq!(found, want, "{}", entry.name);
        }
    }
}
