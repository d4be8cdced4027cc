//! The paper scoreboard (`BENCH_paper.json`): one row per paper claim, and
//! the one rule that turns a paper value into a tolerance and a verdict.
//!
//! A row's `paper` field is the value or shape the repository quotes for
//! the claim. The tolerance follows from it, never from the row:
//!
//! | paper | tolerance |
//! |---|---|
//! | `~X` | within ±25 % of X |
//! | `a–b` | inside [a, b] |
//! | `up to X` | in (0, X] |
//! | `X` | within ±10 % of X |
//! | a shape, `a < b <= c` | the ordering holds on the measured values |
//!
//! Numbers may carry a unit suffix (`%` or `x`); the measured value is in
//! the same unit. A shape's operands are the names of its measured values
//! or numbers. The verdict is recomputed from the printed measured value,
//! so a committed row can be checked without running anything.

use crate::gate;

/// The document's schema line.
const SCHEMA: &str = "sdm-paper-v1";

/// How a row's measured value was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Basis {
    /// Measured by running the modelled stack (or one of its layers).
    Run,
    /// A closed form on the paper's inputs or the model's constants.
    Arithmetic,
}

/// A row's measured value: one number, or named numbers for a shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Measured {
    /// One number, in the paper value's unit.
    Value(f64),
    /// Named numbers a shape orders.
    Named(Vec<(String, f64)>),
}

impl From<f64> for Measured {
    fn from(x: f64) -> Measured {
        Measured::Value(x)
    }
}

impl<const N: usize> From<[(&str, f64); N]> for Measured {
    fn from(values: [(&str, f64); N]) -> Measured {
        Measured::Named(values.map(|(name, v)| (name.to_string(), v)).to_vec())
    }
}

/// One paper claim and what the repository measures for it.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// `experiment.claim`.
    pub key: String,
    /// The table, figure or section.
    pub cite: &'static str,
    /// The value or shape the paper states.
    pub paper: &'static str,
    /// How `measured` was obtained.
    pub basis: Basis,
    /// What the repository measures.
    pub measured: Measured,
}

/// A paper value, parsed: the interval a number form accepts (`open` when
/// its lower end is excluded), or a shape's tokens.
enum Claim {
    Interval { lo: f64, hi: f64, open: bool },
    Shape(Vec<String>),
}

fn number(text: &str) -> Result<f64, String> {
    let text = text.trim();
    let bare = text
        .strip_suffix('%')
        .or_else(|| text.strip_suffix('x'))
        .unwrap_or(text);
    bare.parse()
        .map_err(|_| format!("`{text}` is not a paper number"))
}

/// The rule: `~X` ±25 %, `a–b` inside, `up to X` in (0, X], a bare `X`
/// ±10 %, and anything with `<` or `>` a shape.
fn claim(paper: &str) -> Result<Claim, String> {
    let within = |x: f64, share: f64| Claim::Interval {
        lo: x * (1.0 - share),
        hi: x * (1.0 + share),
        open: false,
    };
    Ok(if paper.contains(['<', '>']) {
        Claim::Shape(paper.split_whitespace().map(str::to_string).collect())
    } else if let Some(x) = paper.strip_prefix("up to ") {
        Claim::Interval {
            lo: 0.0,
            hi: number(x)?,
            open: true,
        }
    } else if let Some(x) = paper.strip_prefix('~') {
        within(number(x)?, 0.25)
    } else if let Some((a, b)) = paper.split_once('–') {
        Claim::Interval {
            lo: number(a)?,
            hi: number(b)?,
            open: false,
        }
    } else {
        within(number(paper)?, 0.10)
    })
}

/// Prints a number to six significant digits, trailing zeros dropped.
fn num(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let decimals = (5 - x.abs().log10().floor() as i32).max(0) as usize;
    let text = format!("{x:.decimals$}");
    if text.contains('.') {
        text.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        text
    }
}

/// The tolerance the rule gives a paper value, as printed in the `tol`
/// field.
///
/// # Errors
///
/// Returns a message when `paper` is neither a number form nor a shape.
pub fn tolerance(paper: &str) -> Result<String, String> {
    Ok(match claim(paper)? {
        Claim::Interval { lo, hi, open } => {
            let open = if open { '(' } else { '[' };
            format!("{open}{}, {}]", num(lo), num(hi))
        }
        Claim::Shape(_) => "ordering".to_string(),
    })
}

/// `name=value` pairs of a shape's printed measured value.
fn named(measured: &str) -> Result<Vec<(&str, f64)>, String> {
    measured
        .split_whitespace()
        .map(|pair| {
            let (name, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("`{pair}` is not name=value"))?;
            Ok((name, number(value)?))
        })
        .collect()
}

/// Whether the printed `measured` value meets `paper` under the rule.
///
/// # Errors
///
/// Returns a message when either field does not parse, or a shape names a
/// value `measured` does not have.
pub fn verdict(paper: &str, measured: &str) -> Result<bool, String> {
    let tokens = match claim(paper)? {
        Claim::Interval { lo, hi, open } => {
            let x = number(measured)?;
            return Ok((if open { x > lo } else { x >= lo }) && x <= hi);
        }
        Claim::Shape(tokens) => tokens,
    };
    let values = named(measured)?;
    let operand = |token: &str| {
        values
            .iter()
            .find(|(name, _)| *name == token)
            .map(|&(_, v)| v)
            .map_or_else(|| number(token), Ok)
    };
    if tokens.len() < 3 || tokens.len() % 2 == 0 {
        return Err(format!("`{paper}` is not a shape"));
    }
    let mut holds = true;
    for step in tokens[..].windows(3).step_by(2) {
        let (a, b) = (operand(&step[0])?, operand(&step[2])?);
        holds &= match step[1].as_str() {
            "<" => a < b,
            "<=" => a <= b,
            ">" => a > b,
            ">=" => a >= b,
            op => return Err(format!("`{op}` in `{paper}` is not an ordering")),
        };
    }
    Ok(holds)
}

fn quoted(text: &str) -> String {
    assert!(
        !text.contains(['"', '\\']),
        "scoreboard text needs no escaping: {text}"
    );
    format!("\"{text}\"")
}

impl Row {
    /// The row's fields, as printed: `cite`, `paper`, `measured`, `tol`,
    /// `basis`, `verdict`.
    ///
    /// # Panics
    ///
    /// Panics when `paper` breaks the rule's grammar, or a shape names a
    /// value the row does not measure: both are bugs in the runner's table.
    fn fields(&self) -> Vec<(String, String)> {
        let measured = match &self.measured {
            Measured::Value(x) => num(*x),
            Measured::Named(values) => quoted(
                &values
                    .iter()
                    .map(|(name, v)| format!("{name}={}", num(*v)))
                    .collect::<Vec<_>>()
                    .join(" "),
            ),
        };
        let rule = tolerance(self.paper)
            .and_then(|tol| Ok((tol, verdict(self.paper, measured.trim_matches('"'))?)));
        let (tol, pass) = match rule {
            Ok(rule) => rule,
            Err(err) => panic!("{}: {err}", self.key),
        };
        let basis = match self.basis {
            Basis::Run => "run",
            Basis::Arithmetic => "arithmetic",
        };
        [
            ("cite", quoted(self.cite)),
            ("paper", quoted(self.paper)),
            ("measured", measured),
            ("tol", quoted(&tol)),
            ("basis", quoted(basis)),
            ("verdict", quoted(if pass { "pass" } else { "fail" })),
        ]
        .map(|(k, v)| (k.to_string(), v))
        .to_vec()
    }
}

/// Renders the scoreboard: one section per row, keyed by [`Row::key`].
pub fn render(rows: &[Row]) -> String {
    let sections: Vec<_> = rows.iter().map(|row| (&row.key, row.fields())).collect();
    gate::render(SCHEMA, &sections)
}

/// One row of a committed scoreboard, as printed (strings unquoted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrintedRow {
    /// `experiment.claim`.
    pub key: String,
    /// The fields in printed order, by name.
    pub fields: Vec<(String, String)>,
}

impl PrintedRow {
    /// The value of field `name`, or `""` when the row lacks it.
    pub fn get(&self, name: &str) -> &str {
        self.fields
            .iter()
            .find(|(k, _)| k == name)
            .map_or("", |(_, v)| v.as_str())
    }
}

/// Reads the rows of a document [`render`] wrote, in order.
pub fn printed_rows(doc: &str) -> Vec<PrintedRow> {
    let mut rows: Vec<PrintedRow> = Vec::new();
    for (path, value) in gate::printed_fields(doc) {
        let Some((key, field)) = path.rsplit_once('.') else {
            continue;
        };
        let field = (field.to_string(), value.trim_matches('"').to_string());
        match rows.last_mut() {
            Some(row) if row.key == key => row.fields.push(field),
            _ => rows.push(PrintedRow {
                key: key.to_string(),
                fields: vec![field],
            }),
        }
    }
    rows
}

/// The README's scoreboard table, generated from a committed document.
pub fn markdown_table(doc: &str) -> String {
    let mut table =
        String::from("| experiment | cite | paper | measured | verdict |\n|---|---|---|---|---|\n");
    for row in printed_rows(doc) {
        table.push_str(&format!(
            "| `{}` | {} | `{}` | `{}` | {} |\n",
            row.key,
            row.get("cite"),
            row.get("paper"),
            row.get("measured"),
            row.get("verdict"),
        ));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_rule_gives_each_form_its_tolerance() {
        assert_eq!(tolerance("~20%").unwrap(), "[15, 25]");
        assert_eq!(tolerance("4–4.6%").unwrap(), "[4, 4.6]");
        assert_eq!(tolerance("up to 48%").unwrap(), "(0, 48]");
        assert_eq!(tolerance("0.51").unwrap(), "[0.459, 0.561]");
        assert_eq!(tolerance("~3x").unwrap(), "[2.25, 3.75]");
        assert_eq!(tolerance("cpu < dual").unwrap(), "ordering");
        assert!(tolerance("most").is_err());
    }

    #[test]
    fn verdicts_follow_the_tolerance() {
        assert_eq!(verdict("~20%", "25"), Ok(true));
        assert_eq!(verdict("~20%", "25.01"), Ok(false));
        assert_eq!(verdict("up to 48%", "0"), Ok(false));
        assert_eq!(verdict("up to 48%", "48"), Ok(true));
        assert_eq!(verdict("9", "10"), Ok(false));
        assert_eq!(verdict("4–4.6%", "4.6"), Ok(true));
        assert!(verdict("9", "\"a=1\"").is_err());
    }

    #[test]
    fn shapes_order_named_values_and_numbers() {
        assert_eq!(verdict("a < b <= c", "a=1 b=2 c=2"), Ok(true));
        assert_eq!(verdict("a < b < c", "a=1 b=2 c=2"), Ok(false));
        assert_eq!(verdict("a > b", "a=2 b=1"), Ok(true));
        assert_eq!(verdict("max < 1", "max=0.09"), Ok(true));
        assert!(verdict("a < z", "a=1").is_err());
        assert!(verdict("a <", "a=1").is_err());
    }

    #[test]
    fn num_keeps_six_significant_digits() {
        assert_eq!(num(183_135.0), "183135");
        assert_eq!(num(12.7), "12.7");
        assert_eq!(num(31.196_2), "31.1962");
        assert_eq!(num(0.000_168_14), "0.00016814");
        assert_eq!(num(0.0), "0");
    }

    #[test]
    fn rows_render_and_read_back() {
        let rows = [
            Row {
                key: "x.gain".into(),
                cite: "§A.2",
                paper: "~20%",
                basis: Basis::Run,
                measured: 31.2.into(),
            },
            Row {
                key: "x.shape".into(),
                cite: "Figure 6",
                paper: "a < b",
                basis: Basis::Run,
                measured: [("a", 1.0), ("b", 0.5)].into(),
            },
        ];
        let printed = printed_rows(&render(&rows));
        assert_eq!(printed.len(), 2);
        assert_eq!(printed[0].key, "x.gain");
        assert_eq!(printed[0].get("tol"), "[15, 25]");
        assert_eq!(printed[0].get("verdict"), "fail");
        assert_eq!(printed[1].get("measured"), "a=1 b=0.5");
        assert_eq!(printed[1].get("verdict"), "fail");
        assert_eq!(printed[1].get("basis"), "run");
    }
}
