//! Seeded inputs: the tables, the statement space of each query class,
//! the order statements are sent in, and the expected answers.
//!
//! Everything here is a pure function of `--seed`; the program under
//! test only ever sees the generated tables and SQL text.

use skadi::arrow::array::Array;
use skadi::arrow::batch::RecordBatch;
use skadi::arrow::datatype::DataType;
use skadi::arrow::ipc;
use skadi::arrow::schema::{Field, Schema};
use skadi::dcsim::rng::DetRng;
use skadi::frontends::exec::MemDb;

/// Rows in `events`, the table the analytic classes read.
pub const EVENTS_ROWS: usize = 65_536;
/// Rows in `events_s`, the table `point` reads.
pub const EVENTS_S_ROWS: usize = 8_192;
/// Distinct `user_id`s, and rows in `people`.
pub const USERS: u64 = 1_024;
/// Ids that draw half of all rows, so shuffle partitions are unequal.
const HOT_USERS: u64 = 16;
const KINDS: [&str; 8] = [
    "click", "view", "purchase", "scroll", "hover", "login", "logout", "share",
];
/// Literals per class with a threshold (`topn`, `scan`).
const THRESHOLDS: usize = 8;

/// One kind of operation. The first five are SQL query classes; `Sim`
/// is one 10k-node chaos run of the `sim_scale` workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Point,
    Groupby,
    Join,
    Topn,
    Scan,
    Sim,
}

impl Class {
    pub const ALL: [Class; 6] = [
        Class::Point,
        Class::Groupby,
        Class::Join,
        Class::Topn,
        Class::Scan,
        Class::Sim,
    ];
    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Groupby => "groupby",
            Class::Join => "join",
            Class::Topn => "topn",
            Class::Scan => "scan",
            Class::Sim => "sim",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }

    /// Every statement the class can send: its template with each value
    /// of the literal filled in.
    pub fn statements(self) -> Vec<String> {
        let grid = |lo: f64| (0..THRESHOLDS).map(move |i| lo + 0.25 * i as f64);
        match self {
            Class::Point => (0..USERS)
                .map(|u| {
                    format!(
                        "SELECT user_id, value FROM events_s WHERE user_id = {u} AND value > 9.0"
                    )
                })
                .collect(),
            Class::Groupby => vec![
                "SELECT kind, sum(value) AS total, count(*) AS n FROM events \
                                    GROUP BY kind ORDER BY total DESC"
                    .to_string(),
            ],
            Class::Join => vec!["SELECT name, count(*) AS n FROM events JOIN people \
                                 ON user_id = user_id GROUP BY name ORDER BY n DESC LIMIT 10"
                .to_string()],
            Class::Topn => grid(4.0)
                .map(|t| {
                    format!(
                        "SELECT user_id, value FROM events WHERE value > {t:.2} \
                         ORDER BY value DESC LIMIT 10"
                    )
                })
                .collect(),
            Class::Scan => grid(1.0)
                .map(|t| format!("SELECT user_id, kind, value FROM events WHERE value > {t:.2}"))
                .collect(),
            Class::Sim => Vec::new(),
        }
    }
}

fn events(rows: usize, rng: &mut DetRng) -> RecordBatch {
    let mut ids = Vec::with_capacity(rows);
    let mut kinds = Vec::with_capacity(rows);
    let mut values = Vec::with_capacity(rows);
    for _ in 0..rows {
        let id = if rng.chance(0.5) {
            rng.below(HOT_USERS)
        } else {
            rng.below(USERS)
        };
        ids.push(id as i64);
        kinds.push(*rng.pick(&KINDS));
        values.push(rng.unit() * 10.0);
    }
    RecordBatch::try_new(
        Schema::new(vec![
            Field::new("user_id", DataType::Int64, false),
            Field::new("kind", DataType::Utf8, false),
            Field::new("value", DataType::Float64, false),
        ]),
        vec![
            Array::from_i64(ids),
            Array::from_utf8(&kinds),
            Array::from_f64(values),
        ],
    )
    .expect("events columns have equal length")
}

/// The three shared tables for `seed`.
pub fn tables(seed: u64) -> MemDb {
    let mut rng = DetRng::seed(seed).fork(1);
    let events_l = events(EVENTS_ROWS, &mut rng);
    let events_s = events(EVENTS_S_ROWS, &mut rng);
    // Distinct names in a seeded order, so the join's result differs by seed.
    let mut order: Vec<u64> = (0..USERS).collect();
    rng.shuffle(&mut order);
    let names: Vec<String> = order.iter().map(|n| format!("user-{n:04}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let people = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("user_id", DataType::Int64, false),
            Field::new("name", DataType::Utf8, false),
        ]),
        vec![
            Array::from_i64((0..USERS as i64).collect()),
            Array::from_utf8(&name_refs),
        ],
    )
    .expect("people columns have equal length");
    MemDb::new()
        .register("events", events_l)
        .register("events_s", events_s)
        .register("people", people)
}

/// One operation to send: the class and which of its statements.
pub type Op = (Class, usize);

/// Picks statements for a class: `point` draws an id at random, classes
/// with few literals walk a seeded permutation so each is used equally.
struct Picker {
    rng: DetRng,
    cursor: [usize; Class::ALL.len()],
    order: Vec<usize>,
}

impl Picker {
    fn new(mut rng: DetRng) -> Self {
        let mut order: Vec<usize> = (0..THRESHOLDS).collect();
        rng.shuffle(&mut order);
        Picker {
            rng,
            cursor: [0; Class::ALL.len()],
            order,
        }
    }

    fn pick(&mut self, class: Class) -> Op {
        let stmt = match class {
            Class::Point => self.rng.below(USERS) as usize,
            Class::Topn | Class::Scan => {
                let at = &mut self.cursor[class.index()];
                *at += 1;
                self.order[(*at - 1) % THRESHOLDS]
            }
            // One statement; `Sim` numbers its own runs.
            Class::Groupby | Class::Join | Class::Sim => 0,
        };
        (class, stmt)
    }
}

/// The closed-loop schedule: an endless sequence of cycles, each the
/// workload's mix in a seeded order with seeded literals.
pub struct Cycles {
    mix: Vec<Class>,
    picker: Picker,
}

impl Cycles {
    /// `mix` is `(class, how many per cycle)`.
    pub fn new(mix: &[(Class, usize)], seed: u64) -> Self {
        let mix = mix
            .iter()
            .flat_map(|&(class, n)| std::iter::repeat_n(class, n))
            .collect();
        Cycles {
            mix,
            picker: Picker::new(DetRng::seed(seed).fork(2)),
        }
    }
}

impl Iterator for Cycles {
    type Item = Vec<Op>;

    fn next(&mut self) -> Option<Vec<Op>> {
        let mut classes = self.mix.clone();
        self.picker.rng.shuffle(&mut classes);
        Some(classes.into_iter().map(|c| self.picker.pick(c)).collect())
    }
}

/// One open-loop arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the request is due, in nanoseconds from the start of the phase.
    pub due_ns: u64,
    pub op: Op,
}

/// Poisson arrivals at `rate_qps` for `seconds`, each of a class drawn
/// with the mix's weights (`mix` is `(class, weight)`). `round` gives
/// each round of a run arrivals of its own.
pub fn poisson_schedule(
    mix: &[(Class, usize)],
    seed: u64,
    round: u64,
    rate_qps: f64,
    seconds: f64,
) -> Vec<Arrival> {
    let mut rng = DetRng::seed(seed).fork(3 + 2 * round);
    let mut picker = Picker::new(DetRng::seed(seed).fork(4 + 2 * round));
    let weighted: Vec<Class> = mix
        .iter()
        .flat_map(|&(class, weight)| std::iter::repeat_n(class, weight))
        .collect();
    let mut out = Vec::new();
    let mut at = 0.0;
    loop {
        at += rng.exponential(1.0 / rate_qps);
        if at >= seconds {
            return out;
        }
        out.push(Arrival {
            due_ns: (at * 1e9) as u64,
            op: picker.pick(*rng.pick(&weighted)),
        });
    }
}

/// What a statement must return: compared by row count on every
/// response and by the full IPC encoding where the caller asks for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub rows: usize,
    pub ipc_len: usize,
    pub ipc_hash: u64,
}

impl Expected {
    pub fn of(batch: &RecordBatch) -> Self {
        let frame = ipc::encode(batch);
        Expected {
            rows: batch.num_rows(),
            ipc_len: frame.len(),
            ipc_hash: fnv1a(&frame),
        }
    }
}

/// 64-bit FNV-1a, so a megabyte result is kept as eight bytes and the
/// benchmark's own memory stays out of `peak_rss_mb`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Statement text and expected answer for every statement of the given
/// classes, computed by the single-process reference engine.
pub struct Statements {
    text: Vec<Vec<String>>,
    expected: Vec<Vec<Expected>>,
}

impl Statements {
    pub fn build(db: &MemDb, classes: &[Class]) -> Result<Self, String> {
        let mut text = vec![Vec::new(); Class::ALL.len()];
        let mut expected = vec![Vec::new(); Class::ALL.len()];
        for &class in classes {
            for sql in class.statements() {
                let batch = db.query(&sql).map_err(|e| format!("{sql}: {e}"))?;
                expected[class.index()].push(Expected::of(&batch));
                text[class.index()].push(sql);
            }
        }
        Ok(Statements { text, expected })
    }

    pub fn sql(&self, op: Op) -> &str {
        &self.text[op.0.index()][op.1]
    }

    pub fn expected(&self, op: Op) -> &Expected {
        &self.expected[op.0.index()][op.1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: [(Class, usize); 3] = [(Class::Point, 4), (Class::Topn, 1), (Class::Scan, 1)];

    #[test]
    fn same_seed_same_inputs() {
        let a: Vec<Vec<Op>> = Cycles::new(&MIX, 9).take(20).collect();
        let b: Vec<Vec<Op>> = Cycles::new(&MIX, 9).take(20).collect();
        let c: Vec<Vec<Op>> = Cycles::new(&MIX, 10).take(20).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|cycle| cycle.len() == 6));

        let p = poisson_schedule(&MIX, 9, 0, 500.0, 2.0);
        assert_eq!(p, poisson_schedule(&MIX, 9, 0, 500.0, 2.0));
        assert_ne!(p, poisson_schedule(&MIX, 10, 0, 500.0, 2.0));
        assert_ne!(p, poisson_schedule(&MIX, 9, 1, 500.0, 2.0));
        assert!(p.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        // 1,000 expected arrivals; five standard deviations is 158.
        assert!((p.len() as i64 - 1000).abs() < 160, "{} arrivals", p.len());

        let batch = |seed| ipc::encode(tables(seed).table("events_s").unwrap());
        assert_eq!(batch(9), batch(9));
        assert_ne!(batch(9), batch(10));
    }

    #[test]
    fn literals_are_used_equally() {
        let mut seen = [0usize; THRESHOLDS];
        for cycle in Cycles::new(&MIX, 3).take(4 * THRESHOLDS) {
            for (class, stmt) in cycle {
                if class == Class::Scan {
                    seen[stmt] += 1;
                }
            }
        }
        assert_eq!(seen, [4; THRESHOLDS]);
    }

    #[test]
    fn statement_space_is_fixed() {
        let sizes: Vec<usize> = Class::ALL.iter().map(|c| c.statements().len()).collect();
        assert_eq!(sizes, [1024, 1, 1, 8, 8, 0]);
        assert!(Class::Scan.statements()[7].ends_with("value > 2.75"));
        assert!(Class::Topn.statements()[0].contains("value > 4.00"));
    }

    #[test]
    fn expected_answers_tell_results_apart() {
        let db = tables(5);
        let s = Statements::build(&db, &[Class::Topn, Class::Groupby]).unwrap();
        assert_eq!(s.expected((Class::Topn, 0)).rows, 10);
        assert_eq!(s.expected((Class::Groupby, 0)).rows, 8);
        assert_ne!(
            s.expected((Class::Topn, 0)),
            s.expected((Class::Groupby, 0))
        );
        assert!(s.sql((Class::Topn, 3)).contains("4.75"));
    }
}
