//! The `regen-traced` workload: every experiment regenerated the way
//! `hprc-exp --trace DIR --jobs 1` does it. An op is one experiment:
//! run under a live registry and journal, render the report, build
//! every side artifact (CSV series, Chrome trace, attribution, metrics
//! snapshot, journal), seal each to disk and log it in a write-ahead
//! manifest. A pass is every experiment, with one fresh delta cache.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hprc_ctx::ExecCtx;
use hprc_exp::{
    attribution, chrome_trace, journal_salt, run_experiment, series_text, ALL_EXPERIMENTS,
};
use hprc_obs::artifact::{crc32, seal};
use hprc_obs::{ArtifactDirKind, DeltaCache, Journal, Manifest, Registry, Snapshot};

use crate::layers::{account, timed, Layers};
use crate::oracle::catch;
use crate::{Bench, Op};

/// The experiments the smoke run regenerates: cheap ones that still
/// produce every artifact kind.
const SMOKE_IDS: [&str; 3] = ["table2", "fig5", "profiles"];

const MIB: f64 = 1024.0 * 1024.0;

struct Blob {
    dir: ArtifactDirKind,
    name: String,
    bytes: Vec<u8>,
}

/// One experiment's artifacts, in the order the CLI seals them.
struct Produced {
    blobs: Vec<Blob>,
    /// The registry snapshot `metrics.json` serializes.
    snapshot: Snapshot,
    /// Host time of the experiment run plus its side-artifact re-runs.
    compute_side_ms: f64,
}

impl Produced {
    /// CRC32 and length of `metrics.json` without its wall-clock `spans`
    /// section, the one part of an artifact that differs between runs.
    fn metrics_sans_spans(&self) -> Result<(u32, usize), String> {
        let mut s = self.snapshot.clone();
        s.spans.clear();
        let text = serde_json::to_string_pretty(&s).map_err(|e| e.to_string())?;
        Ok((crc32(text.as_bytes()), text.len()))
    }

    /// Simulated task calls the experiment's registry counted.
    fn sim_calls(&self) -> u64 {
        ["sim.frtr.calls", "sim.prtr.calls", "sim.preempt.segments"]
            .iter()
            .filter_map(|c| self.snapshot.counters.get(*c))
            .sum()
    }
}

/// What a sealed artifact must read on every pass: name, CRC32, length.
type Seals = Vec<(String, u32, usize)>;

pub(crate) struct RegenBench {
    seed: u64,
    ids: Vec<&'static str>,
    dir: PathBuf,
    delta: DeltaCache,
    manifest: Option<Manifest>,
    /// The warm-up pass's seals: every later pass must match them.
    reference: BTreeMap<&'static str, Seals>,
    pass: u64,
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn sub_dir(dir: &Path, kind: ArtifactDirKind) -> PathBuf {
    dir.join(kind.as_str())
}

impl RegenBench {
    /// Prepares an empty output tree under `dir`.
    pub(crate) fn new(seed: u64, smoke: bool, dir: &Path) -> Result<RegenBench, String> {
        match std::fs::remove_dir_all(dir) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("could not clear {}: {e}", dir.display())),
        }
        for kind in [ArtifactDirKind::Out, ArtifactDirKind::Trace] {
            let d = sub_dir(dir, kind);
            std::fs::create_dir_all(&d)
                .map_err(|e| format!("could not create {}: {e}", d.display()))?;
        }
        Ok(RegenBench {
            seed,
            ids: if smoke {
                SMOKE_IDS.to_vec()
            } else {
                ALL_EXPERIMENTS.to_vec()
            },
            dir: dir.to_path_buf(),
            delta: DeltaCache::disabled(),
            manifest: None,
            reference: BTreeMap::new(),
            pass: 0,
        })
    }

    fn ctx(&self, id: &str, delta: DeltaCache) -> ExecCtx {
        ExecCtx::default()
            .with_registry(Registry::new())
            .with_journal(Journal::new(journal_salt(id, self.seed)))
            .with_seed(self.seed)
            .with_jobs(1)
            .with_delta(delta)
    }

    /// Runs experiment `id` and builds its artifacts in memory.
    fn produce(
        &self,
        id: &str,
        ctx: &ExecCtx,
        probe: &mut Option<&mut Layers>,
    ) -> Result<Produced, String> {
        let t0 = Instant::now();
        let report = timed(probe, "exp.compute_ms", || run_experiment(id, ctx))
            .map_err(|e| e.to_string())?;
        let compute_ms = ms_since(t0);
        let json = timed(probe, "exp.render_ms", || {
            std::hint::black_box(report.render());
            report.json_text()
        });
        let t1 = Instant::now();
        let (csv, trace, attr) = timed(probe, "exp.side_ms", || -> Result<_, String> {
            let csv = series_text(id, ctx).map_err(|e| e.to_string())?;
            // The trace export records truncation counters into the live
            // registry, so it runs before the metrics snapshot.
            let trace = match chrome_trace(id, ctx).map_err(|e| e.to_string())? {
                Some(events) => Some(serde_json::to_string(&events).map_err(|e| e.to_string())?),
                None => None,
            };
            let attr = match attribution(id, ctx) {
                Some(a) => Some(serde_json::to_string_pretty(&a).map_err(|e| e.to_string())?),
                None => None,
            };
            Ok((csv, trace, attr))
        })?;
        let compute_side_ms = compute_ms + ms_since(t1);
        let snapshot = timed(probe, "obs.registry.snapshot_ms", || {
            ctx.registry.snapshot()
        });
        let metrics = timed(probe, "obs.registry.snapshot_ms", || {
            serde_json::to_string_pretty(&snapshot)
        })
        .map_err(|e| e.to_string())?;
        let journal = timed(probe, "obs.journal.export_ms", || {
            ctx.journal.to_jsonl(id, self.seed)
        });

        let out = |name: String, bytes: String| Blob {
            dir: ArtifactDirKind::Out,
            name,
            bytes: bytes.into_bytes(),
        };
        let traced = |name: String, bytes: String| Blob {
            dir: ArtifactDirKind::Trace,
            name,
            bytes: bytes.into_bytes(),
        };
        let mut blobs = vec![out(format!("{id}.json"), json)];
        blobs.extend(csv.map(|c| out(format!("{id}.csv"), c)));
        blobs.extend(trace.map(|t| traced(format!("{id}.trace.json"), t)));
        blobs.extend(attr.map(|a| traced(format!("{id}.attr.json"), a)));
        blobs.push(traced(format!("{id}.metrics.json"), metrics));
        blobs.push(traced(format!("{id}.journal.jsonl"), journal));
        Ok(Produced {
            blobs,
            snapshot,
            compute_side_ms,
        })
    }

    /// Seals every artifact and logs the point in the manifest, as the
    /// CLI's committer does. Returns each artifact's sealed CRC32.
    fn commit(
        &mut self,
        id: &str,
        produced: &Produced,
        probe: &mut Option<&mut Layers>,
    ) -> Result<Vec<u32>, String> {
        let io = |e: std::io::Error| e.to_string();
        let manifest = self.manifest.as_mut().ok_or("no manifest open")?;
        timed(probe, "obs.manifest.append_ms", || manifest.point_begin(id)).map_err(io)?;
        let mut crcs = Vec::with_capacity(produced.blobs.len());
        for blob in &produced.blobs {
            let path = sub_dir(&self.dir, blob.dir).join(&blob.name);
            let crc =
                timed(probe, "obs.artifact.seal_ms", || seal(&path, &blob.bytes)).map_err(io)?;
            timed(probe, "obs.manifest.append_ms", || {
                manifest.artifact_sealed(id, blob.dir, &blob.name, crc, blob.bytes.len() as u64)
            })
            .map_err(io)?;
            crcs.push(crc);
        }
        timed(probe, "obs.manifest.append_ms", || {
            manifest.point_complete(id)
        })
        .map_err(io)?;
        Ok(crcs)
    }

    /// The sealed artifacts as every pass must reproduce them, with
    /// `metrics.json` taken without its spans.
    fn seals(produced: &Produced, crcs: &[u32]) -> Result<Seals, String> {
        let sans_spans = produced.metrics_sans_spans()?;
        Ok(produced
            .blobs
            .iter()
            .zip(crcs)
            .map(|(blob, &crc)| {
                let (crc, len) = if blob.name.ends_with(".metrics.json") {
                    sans_spans
                } else {
                    (crc, blob.bytes.len())
                };
                (blob.name.clone(), crc, len)
            })
            .collect())
    }

    /// The sampled re-run: the experiment again with the delta cache
    /// disabled; every artifact must come out identical.
    fn sample(&self, id: &str, main: &Produced, probe: Option<&mut Layers>) -> Result<(), String> {
        let off = self.produce(id, &self.ctx(id, DeltaCache::disabled()), &mut None)?;
        if main.blobs.len() != off.blobs.len() {
            return Err("delta-on vs delta-off artifact sets differ".into());
        }
        for (a, b) in main.blobs.iter().zip(&off.blobs) {
            let same = a.name == b.name
                && if a.name.ends_with(".metrics.json") {
                    main.metrics_sans_spans()? == off.metrics_sans_spans()?
                } else {
                    a.bytes == b.bytes
                };
            if !same {
                return Err(format!("{}: delta-on vs delta-off differs", a.name));
            }
        }
        if let Some(l) = probe {
            l.sampled(1);
            l.apart(
                "sim.delta.saved_ms",
                off.compute_side_ms - main.compute_side_ms,
            );
        }
        Ok(())
    }
}

impl Bench for RegenBench {
    fn pass_len(&self) -> usize {
        self.ids.len()
    }

    fn begin_pass(&mut self, pass: u64) -> Result<(), String> {
        self.pass = pass;
        // One process-wide cache per pass, as in one `hprc-exp` run.
        self.delta = DeltaCache::enabled();
        let path = sub_dir(&self.dir, ArtifactDirKind::Out).join("bench.manifest.jsonl");
        let mut m = Manifest::create(&path, None).map_err(|e| e.to_string())?;
        let ids: Vec<String> = self.ids.iter().map(|s| s.to_string()).collect();
        m.intent("bench", &ids, self.seed, true)
            .map_err(|e| e.to_string())?;
        self.manifest = Some(m);
        Ok(())
    }

    fn op(&mut self, i: usize, sampled: bool, mut probe: Option<&mut Layers>) -> Op {
        let id = self.ids[i];
        let ctx = self.ctx(id, self.delta.clone());
        let a0 = account(&self.delta);
        let t0 = Instant::now();
        let result = catch(|| -> Result<_, String> {
            let produced = self.produce(id, &ctx, &mut probe)?;
            let crcs = self.commit(id, &produced, &mut probe)?;
            Ok((produced, crcs))
        })
        .and_then(|r| r);
        let busy = t0.elapsed();
        let a1 = account(&self.delta);
        if let Some(l) = probe.as_deref_mut() {
            l.op_done(busy);
        }
        let failed = |e: String| Op {
            busy,
            sim_calls: 0,
            check: Err(format!("{id}: {e}")),
        };
        let (produced, seals) = match result.and_then(|(p, crcs)| {
            let seals = Self::seals(&p, &crcs)?;
            Ok((p, seals))
        }) {
            Ok(r) => r,
            Err(e) => return failed(e),
        };
        if let Some(l) = probe.as_deref_mut() {
            if let Some(row) = crate::regen_row(id) {
                l.ratio(row, busy.as_secs_f64() * 1e3, 1.0);
            }
            let bytes: usize = produced.blobs.iter().map(|b| b.bytes.len()).sum();
            let journal = produced.blobs.last().map_or(0, |b| b.bytes.len());
            l.per_op("obs.artifact.mb", bytes as f64 / MIB);
            l.per_op("obs.journal.mb", journal as f64 / MIB);
            l.per_op("sim.calls", produced.sim_calls() as f64);
            l.per_op("sim.delta.full_hits", (a1.full_hits - a0.full_hits) as f64);
            l.replay_share(&a0, &a1);
            l.cache_activity(&a0, &a1);
        }
        let check = match self.reference.get(id) {
            None => {
                self.reference.insert(id, seals);
                Ok(())
            }
            Some(r) if *r == seals => Ok(()),
            Some(r) => {
                let bad = r
                    .iter()
                    .zip(&seals)
                    .find(|(a, b)| a != b)
                    .map_or("artifact set", |(a, _)| a.0.as_str());
                Err(format!(
                    "pass {}: {bad} differs from the warm-up pass",
                    self.pass
                ))
            }
        }
        .and_then(|()| {
            if sampled {
                catch(|| self.sample(id, &produced, probe)).and_then(|r| r)
            } else {
                Ok(())
            }
        });
        Op {
            busy,
            sim_calls: produced.sim_calls(),
            check: check.map_err(|e| format!("{id}: {e}")),
        }
    }

    fn end_pass(&mut self, _sampled: bool, _probe: Option<&mut Layers>) -> Result<(), String> {
        let mut m = self.manifest.take().ok_or("no manifest open")?;
        m.run_complete().map(|_| ()).map_err(|e| e.to_string())
    }
}

impl Drop for RegenBench {
    fn drop(&mut self) {
        // Best effort: the tree is scratch space of this run.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_has_a_per_layer_row() {
        for id in ALL_EXPERIMENTS {
            assert!(crate::regen_row(id).is_some(), "no exp.regen row for {id}");
        }
    }
}
