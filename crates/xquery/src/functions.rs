//! Built-in function library.
//!
//! All functions are loop-lifted: they consume and produce `iter|pos|item`
//! tables and are evaluated once per scope. Aggregates (`count`, `sum`,
//! `avg`, …) produce a value for *every* iteration of the scope, including
//! iterations whose argument group is empty — the table-algebra equivalent
//! of `count(()) = 0`.
//!
//! The four StandOff joins (`select-narrow($ctx)`, `select-narrow($ctx,
//! $candidates)`, …— the paper's implementation Alternative 3) are *not*
//! dispatched here: the compiler resolves them into annotated
//! [`crate::plan::PlanExpr::StandoffFn`] join operators, so they share
//! the axis-step execution machinery and plan-time strategy choice.

use standoff_algebra::{Item, LlSeq};
use standoff_xml::{NodeRef, SerializeOptions};

use crate::engine::EngineState;
use crate::error::QueryError;

/// Invoke a built-in by local name. Returns `Ok(None)` when the name is
/// not a built-in (caller reports the unknown-function error).
pub(crate) fn call_builtin(
    engine: &EngineState,
    n: u32,
    name: &str,
    args: Vec<LlSeq>,
) -> Result<Option<LlSeq>, QueryError> {
    let result = match (name, args.len()) {
        ("doc", 1) => fn_doc(engine, n, &args[0])?,
        ("layer", 2) => fn_layer(engine, n, &args[0], &args[1])?,
        ("root", 1) => fn_root(&args[0])?,
        ("not", 1) => {
            let ebv = args[0].effective_boolean(n);
            LlSeq::from_columns(
                (0..n).collect(),
                ebv.into_iter().map(|b| Item::Boolean(!b)).collect(),
            )
        }
        ("boolean", 1) => {
            let ebv = args[0].effective_boolean(n);
            LlSeq::from_columns(
                (0..n).collect(),
                ebv.into_iter().map(Item::Boolean).collect(),
            )
        }
        ("string", 1) => per_iter_map(engine, n, &args[0], |engine, g| {
            Some(Item::str(match g.first() {
                Some(item) => item.string_value(&engine.store),
                None => String::new(),
            }))
        }),
        ("data", 1) => {
            let store = &engine.store;
            args[0].map_items(|i| i.atomize(store))
        }
        ("number", 1) => per_iter_map(engine, n, &args[0], |engine, g| {
            Some(Item::Double(match g.first() {
                Some(item) => item.as_number(&engine.store).unwrap_or(f64::NAN),
                None => f64::NAN,
            }))
        }),
        ("name", 1) | ("local-name", 1) => {
            let local_only = name == "local-name";
            per_iter_map(engine, n, &args[0], move |engine, g| {
                let text = match g.first() {
                    Some(Item::Node(node)) => {
                        let full = engine.store.node_name(*node);
                        if local_only {
                            full.split(':').next_back().unwrap_or("").to_string()
                        } else {
                            full
                        }
                    }
                    _ => String::new(),
                };
                Some(Item::str(text))
            })
        }
        ("string-length", 1) => per_iter_map(engine, n, &args[0], |engine, g| {
            let len = g
                .first()
                .map(|i| i.string_value(&engine.store).chars().count())
                .unwrap_or(0);
            Some(Item::Integer(len as i64))
        }),
        ("normalize-space", 1) => per_iter_map(engine, n, &args[0], |engine, g| {
            let s = g
                .first()
                .map(|i| i.string_value(&engine.store))
                .unwrap_or_default();
            Some(Item::str(
                s.split_whitespace().collect::<Vec<_>>().join(" "),
            ))
        }),
        ("upper-case", 1) => string_unary(engine, n, &args[0], |s| s.to_uppercase()),
        ("lower-case", 1) => string_unary(engine, n, &args[0], |s| s.to_lowercase()),
        ("concat", _) if args.len() >= 2 => {
            let mut iters = Vec::with_capacity(n as usize);
            let mut items = Vec::with_capacity(n as usize);
            for iter in 0..n {
                let mut s = String::new();
                for a in &args {
                    if let Some(item) = a.group(iter).first() {
                        s.push_str(&item.string_value(&engine.store));
                    }
                }
                iters.push(iter);
                items.push(Item::str(s));
            }
            LlSeq::from_columns(iters, items)
        }
        ("contains", 2) => string_binary(engine, n, &args[0], &args[1], |a, b| {
            Item::Boolean(a.contains(b))
        }),
        ("starts-with", 2) => string_binary(engine, n, &args[0], &args[1], |a, b| {
            Item::Boolean(a.starts_with(b))
        }),
        ("ends-with", 2) => string_binary(engine, n, &args[0], &args[1], |a, b| {
            Item::Boolean(a.ends_with(b))
        }),
        ("string-join", 2) => {
            let mut iters = Vec::new();
            let mut items = Vec::new();
            for iter in 0..n {
                let sep = args[1]
                    .group(iter)
                    .first()
                    .map(|i| i.string_value(&engine.store))
                    .unwrap_or_default();
                let joined = args[0]
                    .group(iter)
                    .iter()
                    .map(|i| i.string_value(&engine.store))
                    .collect::<Vec<_>>()
                    .join(&sep);
                iters.push(iter);
                items.push(Item::str(joined));
            }
            LlSeq::from_columns(iters, items)
        }
        ("substring", 2) | ("substring", 3) => fn_substring(engine, n, &args)?,
        ("substring-before", 2) => string_binary(engine, n, &args[0], &args[1], |a, b| {
            Item::str(a.find(b).map(|k| &a[..k]).unwrap_or(""))
        }),
        ("substring-after", 2) => string_binary(engine, n, &args[0], &args[1], |a, b| {
            Item::str(a.find(b).map(|k| &a[k + b.len()..]).unwrap_or(""))
        }),
        ("translate", 3) => {
            let mut iters = Vec::new();
            let mut items = Vec::new();
            for iter in 0..n {
                let s = args[0]
                    .group(iter)
                    .first()
                    .map(|i| i.string_value(&engine.store))
                    .unwrap_or_default();
                let from: Vec<char> = args[1]
                    .group(iter)
                    .first()
                    .map(|i| i.string_value(&engine.store))
                    .unwrap_or_default()
                    .chars()
                    .collect();
                let to: Vec<char> = args[2]
                    .group(iter)
                    .first()
                    .map(|i| i.string_value(&engine.store))
                    .unwrap_or_default()
                    .chars()
                    .collect();
                let out: String = s
                    .chars()
                    .filter_map(|c| match from.iter().position(|&f| f == c) {
                        Some(k) => to.get(k).copied(),
                        None => Some(c),
                    })
                    .collect();
                iters.push(iter);
                items.push(Item::str(out));
            }
            LlSeq::from_columns(iters, items)
        }
        // Whitespace tokenizer (the regex-free XPath 1.0 idiom; a pattern
        // argument would need a regex engine, which is out of scope).
        ("tokenize", 1) => {
            let mut out = LlSeq::empty();
            for iter in 0..n {
                if let Some(item) = args[0].group(iter).first() {
                    for tok in item.string_value(&engine.store).split_whitespace() {
                        out.push(iter, Item::str(tok));
                    }
                }
            }
            out
        }
        ("sum", 1) => per_iter_map(engine, n, &args[0], |engine, g| {
            let mut all_int = true;
            let mut total = 0f64;
            for item in g {
                match item.atomize(&engine.store) {
                    Item::Integer(i) => total += i as f64,
                    other => {
                        all_int = false;
                        total += other.as_number(&engine.store).unwrap_or(f64::NAN);
                    }
                }
            }
            Some(if all_int && total.fract() == 0.0 {
                Item::Integer(total as i64)
            } else {
                Item::Double(total)
            })
        }),
        ("avg", 1) => per_iter_map(engine, n, &args[0], |engine, g| {
            if g.is_empty() {
                return None;
            }
            let total: f64 = g
                .iter()
                .map(|i| i.as_number(&engine.store).unwrap_or(f64::NAN))
                .sum();
            Some(Item::Double(total / g.len() as f64))
        }),
        ("max", 1) | ("min", 1) => {
            let want_max = name == "max";
            per_iter_map(engine, n, &args[0], move |engine, g| {
                let store = &engine.store;
                g.iter().map(|i| i.atomize(store)).reduce(|best, x| {
                    let keep_x = matches!(
                        x.general_compare(&best, store),
                        Some(std::cmp::Ordering::Greater)
                    ) == want_max
                        && x.general_compare(&best, store).is_some()
                        && x.general_compare(&best, store) != Some(std::cmp::Ordering::Equal);
                    if keep_x {
                        x
                    } else {
                        best
                    }
                })
            })
        }
        ("abs", 1) => numeric_unary(engine, n, &args[0], |v| v.abs()),
        ("floor", 1) => numeric_unary(engine, n, &args[0], f64::floor),
        ("ceiling", 1) => numeric_unary(engine, n, &args[0], f64::ceil),
        ("round", 1) => numeric_unary(engine, n, &args[0], |v| {
            // XPath rounds half towards positive infinity.
            (v + 0.5).floor()
        }),
        ("distinct-values", 1) => {
            let store = &engine.store;
            let mut out = LlSeq::empty();
            for (iter, items) in args[0].groups() {
                let mut seen: Vec<Item> = Vec::new();
                for item in items {
                    let v = item.atomize(store);
                    if !seen
                        .iter()
                        .any(|s| s.general_compare(&v, store) == Some(std::cmp::Ordering::Equal))
                    {
                        seen.push(v.clone());
                        out.push(iter, v);
                    }
                }
            }
            out
        }
        ("reverse", 1) => {
            let mut out = LlSeq::empty();
            for (iter, items) in args[0].groups() {
                for item in items.iter().rev() {
                    out.push(iter, item.clone());
                }
            }
            out
        }
        ("subsequence", 2) | ("subsequence", 3) => fn_subsequence(engine, n, &args)?,
        ("zero-or-one", 1) => {
            for (_, items) in args[0].groups() {
                if items.len() > 1 {
                    return Err(QueryError::dynamic("zero-or-one(): more than one item"));
                }
            }
            args.into_iter().next().unwrap()
        }
        ("exactly-one", 1) => {
            let table = args.into_iter().next().unwrap();
            for iter in 0..n {
                if table.group(iter).len() != 1 {
                    return Err(QueryError::dynamic("exactly-one(): not exactly one item"));
                }
            }
            table
        }
        ("one-or-more", 1) => {
            let table = args.into_iter().next().unwrap();
            for iter in 0..n {
                if table.group(iter).is_empty() {
                    return Err(QueryError::dynamic("one-or-more(): empty sequence"));
                }
            }
            table
        }
        ("serialize", 1) => per_iter_map(engine, n, &args[0], |engine, g| {
            let mut s = String::new();
            for item in g {
                match item {
                    Item::Node(node) => s.push_str(&standoff_xml::serialize_node(
                        engine.store.doc(node.doc),
                        node.id,
                        SerializeOptions::default(),
                    )),
                    atom => s.push_str(&atom.string_value(&engine.store)),
                }
            }
            Some(Item::str(s))
        }),
        _ => return Ok(None),
    };
    Ok(Some(result))
}

// ---- helpers ----

/// `count`, `exists` or `empty` of a sequence with `counts[i]` rows in
/// iteration `i`, for every iteration of the scope. The evaluator takes
/// the counts from an argument's `iter` column
/// (`Evaluator::eval_iters`), or from the index for an operator the
/// plan stamped `count_from_index`, so a counted step never builds its
/// items.
pub(crate) fn aggregate_rows(name: &str, counts: &[u64]) -> LlSeq {
    let item = |&rows: &u64| match name {
        "count" => Item::Integer(rows as i64),
        "exists" => Item::Boolean(rows > 0),
        _ => Item::Boolean(rows == 0),
    };
    let n = counts.len() as u32;
    LlSeq::from_columns((0..n).collect(), counts.iter().map(item).collect())
}

/// Per-iteration mapping producing zero-or-one item per iteration.
fn per_iter_map(
    engine: &EngineState,
    n: u32,
    table: &LlSeq,
    f: impl Fn(&EngineState, &[Item]) -> Option<Item>,
) -> LlSeq {
    let mut iters = Vec::with_capacity(n as usize);
    let mut items = Vec::with_capacity(n as usize);
    for iter in 0..n {
        if let Some(item) = f(engine, table.group(iter)) {
            iters.push(iter);
            items.push(item);
        }
    }
    LlSeq::from_columns(iters, items)
}

fn string_unary(engine: &EngineState, n: u32, table: &LlSeq, f: impl Fn(&str) -> String) -> LlSeq {
    per_iter_map(engine, n, table, |engine, g| {
        let s = g
            .first()
            .map(|i| i.string_value(&engine.store))
            .unwrap_or_default();
        Some(Item::str(f(&s)))
    })
}

fn string_binary(
    engine: &EngineState,
    n: u32,
    a: &LlSeq,
    b: &LlSeq,
    f: impl Fn(&str, &str) -> Item,
) -> LlSeq {
    let mut iters = Vec::with_capacity(n as usize);
    let mut items = Vec::with_capacity(n as usize);
    for iter in 0..n {
        let x = a
            .group(iter)
            .first()
            .map(|i| i.string_value(&engine.store))
            .unwrap_or_default();
        let y = b
            .group(iter)
            .first()
            .map(|i| i.string_value(&engine.store))
            .unwrap_or_default();
        iters.push(iter);
        items.push(f(&x, &y));
    }
    LlSeq::from_columns(iters, items)
}

fn numeric_unary(engine: &EngineState, n: u32, table: &LlSeq, f: impl Fn(f64) -> f64) -> LlSeq {
    per_iter_map(engine, n, table, |engine, g| {
        let item = g.first()?;
        let v = item.as_number(&engine.store)?;
        let r = f(v);
        Some(match item.atomize(&engine.store) {
            Item::Integer(_) => Item::Integer(r as i64),
            _ if r.fract() == 0.0 && r.abs() < 1e15 => Item::Integer(r as i64),
            _ => Item::Double(r),
        })
    })
}

fn fn_doc(engine: &EngineState, n: u32, uris: &LlSeq) -> Result<LlSeq, QueryError> {
    let mut out = LlSeq::empty();
    for iter in 0..n {
        let Some(item) = uris.group(iter).first() else {
            continue;
        };
        let uri = item.string_value(&engine.store);
        let doc_id = engine
            .store
            .by_uri(&uri)
            .ok_or_else(|| QueryError::dynamic(format!("document '{uri}' not found")))?;
        // A mounted layer materializes here, the first time a query
        // resolves it — computed URIs included.
        engine.store.try_doc(doc_id).map_err(QueryError::dynamic)?;
        out.push(iter, Item::Node(NodeRef::tree(doc_id, 0)));
    }
    Ok(out)
}

/// `layer($uri, $name)` — root of a named annotation layer of a mounted
/// store (see `Engine::mount_store`). `layer("corpus", "base")` is the
/// base layer, i.e. the same node as `doc("corpus")`.
fn fn_layer(
    engine: &EngineState,
    n: u32,
    uris: &LlSeq,
    names: &LlSeq,
) -> Result<LlSeq, QueryError> {
    let mut out = LlSeq::empty();
    for iter in 0..n {
        let (Some(uri_item), Some(name_item)) =
            (uris.group(iter).first(), names.group(iter).first())
        else {
            continue;
        };
        let uri = uri_item.string_value(&engine.store);
        let name = name_item.string_value(&engine.store);
        let doc_id = engine.layer_doc(&uri, &name).ok_or_else(|| {
            QueryError::dynamic(format!("no layer '{name}' mounted under '{uri}'"))
        })?;
        engine.store.try_doc(doc_id).map_err(QueryError::dynamic)?;
        out.push(iter, Item::Node(NodeRef::tree(doc_id, 0)));
    }
    Ok(out)
}

fn fn_root(nodes: &LlSeq) -> Result<LlSeq, QueryError> {
    let mut out = LlSeq::empty();
    for (iter, items) in nodes.groups() {
        let mut last: Option<NodeRef> = None;
        for item in items {
            let node = item
                .as_node()
                .ok_or_else(|| QueryError::dynamic("root() requires nodes"))?;
            let root = NodeRef::tree(node.doc, 0);
            if last != Some(root) {
                out.push(iter, Item::Node(root));
                last = Some(root);
            }
        }
    }
    Ok(out)
}

fn fn_substring(engine: &EngineState, n: u32, args: &[LlSeq]) -> Result<LlSeq, QueryError> {
    let mut iters = Vec::new();
    let mut items = Vec::new();
    for iter in 0..n {
        let s = args[0]
            .group(iter)
            .first()
            .map(|i| i.string_value(&engine.store))
            .unwrap_or_default();
        let Some(start_item) = args[1].group(iter).first() else {
            continue;
        };
        let start = start_item
            .as_number(&engine.store)
            .ok_or_else(|| QueryError::dynamic("substring(): start is not a number"))?;
        let len = match args.get(2) {
            Some(a) => match a.group(iter).first() {
                Some(item) => item
                    .as_number(&engine.store)
                    .ok_or_else(|| QueryError::dynamic("substring(): length is not a number"))?,
                None => 0.0,
            },
            None => f64::INFINITY,
        };
        // XPath 1-based character positions.
        let chars: Vec<char> = s.chars().collect();
        let from = (start.round() as i64 - 1).max(0) as usize;
        let to = if len.is_infinite() {
            chars.len()
        } else {
            ((start.round() + len.round() - 1.0).max(0.0) as usize).min(chars.len())
        };
        let sub: String = if from < to {
            chars[from..to].iter().collect()
        } else {
            String::new()
        };
        iters.push(iter);
        items.push(Item::str(sub));
    }
    Ok(LlSeq::from_columns(iters, items))
}

fn fn_subsequence(engine: &EngineState, n: u32, args: &[LlSeq]) -> Result<LlSeq, QueryError> {
    let mut out = LlSeq::empty();
    for iter in 0..n {
        let items = args[0].group(iter);
        let Some(start_item) = args[1].group(iter).first() else {
            continue;
        };
        let start = int_value(start_item, &engine.store)?;
        let len = match args.get(2) {
            Some(a) => match a.group(iter).first() {
                Some(item) => int_value(item, &engine.store)?,
                None => 0,
            },
            None => i64::MAX,
        };
        for (pos, item) in items.iter().enumerate() {
            let p = pos as i64 + 1;
            if p >= start && (len == i64::MAX || p < start + len) {
                out.push(iter, item.clone());
            }
        }
    }
    Ok(out)
}

/// An item as an integer: integers, integral doubles, and strings that
/// parse as one.
pub(crate) fn int_value(item: &Item, store: &standoff_xml::Store) -> Result<i64, QueryError> {
    match item.atomize(store) {
        Item::Integer(i) => Ok(i),
        Item::Double(d) if d.fract() == 0.0 => Ok(d as i64),
        Item::Untyped(s) | Item::String(s) => s
            .trim()
            .parse()
            .map_err(|_| QueryError::dynamic(format!("'{s}' is not an integer"))),
        other => Err(QueryError::dynamic(format!("'{other}' is not an integer"))),
    }
}
