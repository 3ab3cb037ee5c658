//! Every `FX_*` environment knob, in one table.
//!
//! A knob is a *default*: it is read each time a [`crate::Machine`] is
//! built — tests set variables at run time, so not once per process — and
//! an explicit `with_*` on the machine always wins. A
//! variable that is set to something its knob does not accept panics,
//! naming the variable and the accepted forms: `FX_WORKERS=two` must
//! not silently test the default worker count.

/// One environment variable, as the README's knob table and the panic a
/// malformed value raises show it.
pub struct Knob {
    /// The variable's name.
    pub name: &'static str,
    /// The accepted spellings, and any clamp applied to an accepted value.
    pub accepts: &'static str,
    /// What applies when the variable is unset.
    pub default: &'static str,
}

/// Every knob the library reads; the README's table mirrors it (a unit
/// test compares them).
pub const KNOBS: [Knob; 6] = [
    Knob {
        name: "FX_WORKERS",
        accepts: "an integer, at most one per processor counts; `0` is the default",
        default: "one per host CPU",
    },
    Knob { name: "FX_DATAFLOW", accepts: "`off`, `on` or `validate`", default: "`on`" },
    Knob { name: "FX_HEARTBEAT", accepts: "`off` or `on`", default: "`on`" },
    Knob { name: "FX_TRACE", accepts: "`1`, `on`, `true`, `0`, `off` or `false`", default: "off" },
    Knob { name: "FX_RECV_TIMEOUT_MS", accepts: "an integer number of milliseconds", default: "`60000`" },
    Knob { name: "FX_STACK_KB", accepts: "an integer number of KiB, raised to at least 64", default: "`1024`" },
];

/// The value of knob `name` as `parse` reads it, `None` when the variable
/// is unset.
///
/// # Panics
/// When the variable is set to something `parse` rejects (or `name` is
/// not in [`KNOBS`]: every read goes through the table).
pub fn read<T>(name: &str, parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
    let knob = KNOBS.iter().find(|k| k.name == name).expect("a knob of the table");
    let raw = std::env::var_os(name)?;
    let value = raw.to_str().and_then(parse);
    Some(value.unwrap_or_else(|| panic!("{name}={raw:?} is not recognised: expected {}", knob.accepts)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readme_table_mirrors_the_knobs() {
        let readme = include_str!("../../../README.md");
        for k in &KNOBS {
            let row = format!("| `{}` | {} | {} |", k.name, k.accepts, k.default);
            assert!(readme.contains(&row), "README.md lacks the row\n{row}");
        }
        assert_eq!(readme.matches("| `FX_").count(), KNOBS.len(), "README lists a knob the table lacks");
    }
}
