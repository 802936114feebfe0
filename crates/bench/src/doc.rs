//! What an experiment returns: a [`Doc`] — the JSON record and its text
//! rendering, built side by side — whose row sets are [`Table`]s declared
//! once and rendered both ways.

use crate::json::{Json, ToJson};

/// Format a byte count the way the paper's axes do (16, 1K, 64K, 4M).
pub fn fmt_size(bytes: usize) -> String {
    if bytes >= 1 << 20 && bytes.is_multiple_of(1 << 20) {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1 << 10 && bytes.is_multiple_of(1 << 10) {
        format!("{}K", bytes >> 10)
    } else {
        format!("{bytes}")
    }
}

/// The paper's message-size sweep: 16 B to 4 MB in 4x steps.
pub fn paper_sizes() -> Vec<usize> {
    (0..10).map(|i| 16 << (2 * i)).collect()
}

/// How a cell is written in the text table.
#[derive(Copy, Clone)]
pub enum Fmt {
    /// Integers, strings and bools as they are.
    Plain,
    /// A byte count in the paper's units ([`fmt_size`]).
    Size,
    /// A float with this many decimals.
    Fixed(usize),
    /// A float as a whole percentage.
    Pct,
}

/// One column: its JSON key, its text header and its text format. An empty
/// key keeps the column out of the JSON rows, an empty header out of the
/// text table.
#[derive(Copy, Clone)]
pub struct Col {
    pub key: &'static str,
    pub header: &'static str,
    pub fmt: Fmt,
}

/// Shorthand for a [`Col`].
pub const fn col(key: &'static str, header: &'static str, fmt: Fmt) -> Col {
    Col { key, header, fmt }
}

/// Rows filled against one column declaration; the aligned text table and
/// the JSON array of row objects both come from it.
pub struct Table {
    cols: Vec<Col>,
    rows: Vec<Vec<Json>>,
}

impl Table {
    pub fn new(cols: &[Col]) -> Table {
        Table {
            cols: cols.to_vec(),
            rows: Vec::new(),
        }
    }

    /// A table that only ever becomes JSON: its columns are just keys.
    pub fn json_only(keys: &[&'static str]) -> Table {
        let cols: Vec<Col> = keys.iter().map(|k| col(k, "", Fmt::Plain)).collect();
        Table::new(&cols)
    }

    /// Append a row: one cell per declared column, in order.
    pub fn row(&mut self, cells: &[&dyn ToJson]) {
        assert_eq!(cells.len(), self.cols.len(), "one cell per column");
        self.rows.push(cells.iter().map(|c| c.to_json()).collect());
    }

    fn cell(&self, row: usize, key: &str) -> &Json {
        let c = self.cols.iter().position(|c| c.key == key);
        &self.rows[row][c.unwrap_or_else(|| panic!("no column `{key}`"))]
    }

    /// The numeric cell under JSON key `key` in row `row`.
    pub fn num(&self, row: usize, key: &str) -> f64 {
        match self.cell(row, key) {
            Json::Num(x) => *x,
            Json::Int(n) => *n as f64,
            other => panic!("column `{key}` is not numeric: {other}"),
        }
    }

    /// The first row whose `key` cell equals `value`.
    pub fn find(&self, key: &str, value: impl ToJson) -> usize {
        let want = value.to_json();
        (0..self.rows.len())
            .find(|&r| *self.cell(r, key) == want)
            .unwrap_or_else(|| panic!("no row with {key} = {want}"))
    }

    /// The aligned text table (every column right-aligned, as the committed
    /// `.txt` files are).
    pub fn render(&self) -> String {
        let shown: Vec<usize> = (0..self.cols.len())
            .filter(|&c| !self.cols[c].header.is_empty())
            .collect();
        let text = |cell: &Json, fmt: Fmt| match (cell, fmt) {
            (Json::Int(n), Fmt::Size) => fmt_size(*n as usize),
            (Json::Num(x), Fmt::Fixed(d)) => format!("{x:.d$}"),
            (Json::Num(x), Fmt::Pct) => format!("{x:.0}%"),
            (Json::Str(s), _) => s.clone(),
            (other, _) => other.to_string(),
        };
        let mut lines: Vec<Vec<String>> = vec![shown
            .iter()
            .map(|&c| self.cols[c].header.to_string())
            .collect()];
        for row in &self.rows {
            let cells = shown.iter().map(|&c| text(&row[c], self.cols[c].fmt));
            lines.push(cells.collect());
        }
        let widths: Vec<usize> = (0..shown.len())
            .map(|i| lines.iter().map(|l| l[i].len()).max().unwrap_or(0))
            .collect();
        lines.insert(1, widths.iter().map(|w| "-".repeat(*w)).collect());
        let aligned = lines.iter().map(|line| {
            let cells = line.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}"));
            cells.collect::<Vec<_>>().join("  ")
        });
        aligned.collect::<Vec<_>>().join("\n")
    }
}

/// The JSON array of row objects, keyed columns only.
impl ToJson for Table {
    fn to_json(&self) -> Json {
        let row = |cells: &Vec<Json>| {
            let keyed = self
                .cols
                .iter()
                .zip(cells)
                .filter(|(c, _)| !c.key.is_empty());
            Json::Obj(keyed.map(|(c, v)| (c.key.to_string(), v.clone())).collect())
        };
        Json::Arr(self.rows.iter().map(row).collect())
    }
}

/// One experiment's result: the machine-readable record (`--json`,
/// `--out`), the human-readable rendering, and the verdicts that must end
/// the process non-zero *after* the record has been written.
#[derive(Default)]
pub struct Doc {
    pub(crate) fields: Vec<(String, Json)>,
    text: String,
    /// Failed verdicts ("FAIL: ..." and exit status 1 from the driver, a
    /// failed test from `tests/baselines.rs`). Guards that cannot produce a
    /// record at all panic instead.
    pub failures: Vec<String>,
}

impl Doc {
    pub fn new() -> Doc {
        Doc::default()
    }

    /// Add a document-level JSON field.
    pub fn field(&mut self, key: &str, value: impl ToJson) -> &mut Doc {
        self.fields.push((key.to_string(), value.to_json()));
        self
    }

    /// Add a line (or a pre-rendered block) to the text rendering, the way
    /// `println!` would.
    pub fn say(&mut self, text: impl AsRef<str>) -> &mut Doc {
        self.text.push_str(text.as_ref());
        self.text.push('\n');
        self
    }

    /// Add `table` to both sides: the JSON array under `key` and the
    /// aligned text table.
    pub fn table(&mut self, key: &str, table: &Table) -> &mut Doc {
        self.field(key, table).say(table.render())
    }

    /// The JSON record.
    pub fn json(&self) -> Json {
        Json::Obj(self.fields.clone())
    }

    /// The text rendering.
    pub fn text(&self) -> &str {
        &self.text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_size_uses_paper_units() {
        assert_eq!(fmt_size(16), "16");
        assert_eq!(fmt_size(1 << 10), "1K");
        assert_eq!(fmt_size(64 << 10), "64K");
        assert_eq!(fmt_size(4 << 20), "4M");
        assert_eq!(fmt_size(100), "100");
    }

    #[test]
    fn paper_sizes_span_16b_to_4mb() {
        let s = paper_sizes();
        assert_eq!(s.first(), Some(&16));
        assert_eq!(s.last(), Some(&(4 << 20)));
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn one_declaration_renders_both_ways() {
        const COLS: &[Col] = &[
            col("bytes", "size", Fmt::Size),
            col("staged", "", Fmt::Plain),
            col("", "path", Fmt::Plain),
            col("us", "latency (us)", Fmt::Fixed(1)),
        ];
        let mut t = Table::new(COLS);
        t.row(&[&(64usize << 10), &true, &"staged", &12.345]);
        t.row(&[&16usize, &false, &"eager", &2.0]);
        assert_eq!(
            t.render(),
            "size    path  latency (us)\n----  ------  ------------\n 64K  staged          12.3\n  \
             16   eager           2.0"
        );
        let mut doc = Doc::new();
        doc.field("iters", 3usize).table("data", &t);
        let json = doc.json().to_string();
        assert!(json.contains("\"staged\": true") && !json.contains("path"));
        assert!(json.contains("\"us\": 12.345"), "JSON keeps full precision");
        assert_eq!((t.find("bytes", 16usize), t.num(1, "us")), (1, 2.0));
    }
}
