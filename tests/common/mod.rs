//! Shared by the golden-fixture suites: the `GOLDEN_REGEN=1` rewrite.

use std::path::Path;

use cellsync_wire::Json;

/// The tolerances of one golden suite, by the fixture key a number sits
/// under: `alpha` arrays (absolute), `lambda` (relative) and every other
/// number (absolute).
pub struct Tolerances {
    pub alpha: f64,
    pub metric: f64,
    pub lambda_rel: f64,
}

/// Writes `fresh` to `path`, keeping every number of the committed
/// fixture that lies within its own tolerance of the fresh value, so a
/// regeneration rewrites only what moved (a run on another host, or a
/// change that moves one value, leaves the rest of the file alone).
/// Returns how many numbers were rewritten.
pub fn regenerate(path: &Path, fresh: Json, tol: &Tolerances) -> usize {
    let pinned = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| Json::parse(&text).ok());
    let mut moved = 0;
    let settled = settle(fresh, pinned.as_ref(), "", tol, &mut moved);
    std::fs::create_dir_all(path.parent().expect("fixtures dir has a parent"))
        .expect("create fixtures dir");
    std::fs::write(path, settled.render() + "\n").expect("write fixture");
    moved
}

/// `fresh`, with each number replaced by its `pinned` counterpart when
/// the two agree within the tolerance of `key`.
fn settle(
    fresh: Json,
    pinned: Option<&Json>,
    key: &str,
    tol: &Tolerances,
    moved: &mut usize,
) -> Json {
    match (fresh, pinned) {
        (Json::Num(f), Some(&Json::Num(p))) => {
            let bound = match key {
                "alpha" => tol.alpha,
                "lambda" => tol.lambda_rel * p.abs(),
                _ => tol.metric,
            };
            if (f - p).abs() <= bound {
                Json::Num(p)
            } else {
                *moved += 1;
                Json::Num(f)
            }
        }
        (Json::Num(f), _) => {
            *moved += 1;
            Json::Num(f)
        }
        (Json::Arr(items), Some(Json::Arr(old))) if items.len() == old.len() => Json::Arr(
            items
                .into_iter()
                .zip(old)
                .map(|(f, p)| settle(f, Some(p), key, tol, moved))
                .collect(),
        ),
        (Json::Obj(fields), Some(old)) => Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| {
                    let v = settle(v, old.get(&k), &k, tol, moved);
                    (k, v)
                })
                .collect(),
        ),
        (other, _) => other,
    }
}
