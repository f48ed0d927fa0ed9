//! Content-addressed on-disk trace store.
//!
//! A [`TraceStore`] is a flat directory of `.dtr` files named by the
//! [`Fingerprint`] of the inputs that produced them. Lookup is a file-name
//! probe; materialization runs the caller's producer into a temp file and
//! publishes it with an atomic rename, so a fingerprint's file is either
//! absent or complete — concurrent workers (threads or processes) never
//! observe a torn trace. Within one process a per-key lock additionally
//! guarantees each distinct trace is produced at most once per grid.
//!
//! ## Cross-process materialize-once locking
//!
//! When several *processes* share one store (say, a `harness` run and a
//! `das-serve` server pointed at the same `--trace-store` directory),
//! each key is additionally guarded by an on-disk `<key>.lock` file
//! created with `O_EXCL` and carrying the holder's pid and a wall-clock
//! stamp. A process that loses the race waits for the lock to clear (or
//! for the trace to appear) instead of duplicating the work. Crash
//! safety: a holder that dies mid-materialize leaks its lock file, so
//! waiters run a liveness check — a lock whose pid is no longer alive
//! (Linux `/proc` probe) or whose stamp is older than the staleness
//! window is *reclaimed* (deleted) and the waiter takes over. The lock is
//! purely a work-deduplication device: correctness never depends on it,
//! because publication is an atomic tmp+rename of deterministic bytes —
//! if two processes ever do materialize the same key, the second rename
//! simply overwrites identical content. That is also why the bounded
//! wait ([`LockOptions::max_wait`]) may safely fall through to a
//! lock-less "barge" materialization instead of deadlocking on a hung
//! but live holder.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::fingerprint::Fingerprint;
use crate::format::TraceWriter;
use crate::prefetch::PrefetchReader;

/// Counters describing how a store session went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups served by an already-materialized file.
    pub hits: u64,
    /// Lookups that had to materialize the trace.
    pub misses: u64,
    /// Bytes of trace published by this process.
    pub bytes_written: u64,
    /// Bytes of trace opened for replay by this process.
    pub bytes_read: u64,
    /// Stale cross-process locks reclaimed (holder dead or timed out).
    pub locks_reclaimed: u64,
    /// Materializations that waited on another process's lock.
    pub lock_waits: u64,
}

/// Tuning for the cross-process materialize-once lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockOptions {
    /// A lock older than this is stale even if its pid looks alive
    /// (guards against pid reuse and non-Linux hosts without `/proc`).
    pub staleness: Duration,
    /// Poll interval while waiting on another process's lock.
    pub poll: Duration,
    /// Upper bound on waiting for a live holder; past it the waiter
    /// barges and materializes without the lock (safe: atomic rename of
    /// deterministic bytes).
    pub max_wait: Duration,
}

impl Default for LockOptions {
    fn default() -> LockOptions {
        LockOptions {
            staleness: Duration::from_secs(120),
            poll: Duration::from_millis(50),
            max_wait: Duration::from_secs(600),
        }
    }
}

/// A content-addressed store of `.dtr` traces in one directory.
#[derive(Debug)]
pub struct TraceStore {
    dir: PathBuf,
    /// Per-fingerprint locks so one process materializes each key once.
    keys: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    tmp_seq: AtomicU64,
    lock_opts: LockOptions,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    locks_reclaimed: AtomicU64,
    lock_waits: AtomicU64,
}

/// How one attempt at the on-disk key lock went.
enum LockAttempt {
    /// We hold the lock (guard removes the file on drop).
    Held(LockGuard),
    /// Another process holds a live lock — wait and retry.
    Busy,
    /// Waited past `max_wait` on a live holder — proceed without a lock.
    Barged,
}

/// Deletes the lock file on drop (including the producer-error path).
struct LockGuard {
    path: PathBuf,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

fn now_epoch_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Whether `pid` is demonstrably dead. On hosts without `/proc` this is
/// always `false` and staleness falls back to the time window alone.
fn pid_is_dead(pid: u64) -> bool {
    Path::new("/proc").is_dir() && !Path::new(&format!("/proc/{pid}")).exists()
}

/// Parses `pid epoch_ms` from a lock file. `None` means torn/unreadable —
/// treated as stale (the writer crashed mid-write or the file is foreign).
fn parse_lock(text: &str) -> Option<(u64, u64)> {
    let mut it = text.split_whitespace();
    let pid = it.next()?.parse().ok()?;
    let stamp = it.next()?.parse().ok()?;
    Some((pid, stamp))
}

impl TraceStore {
    /// Opens (creating if needed) the store directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: &Path) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        Ok(TraceStore {
            dir: dir.to_path_buf(),
            keys: Mutex::new(HashMap::new()),
            tmp_seq: AtomicU64::new(0),
            lock_opts: LockOptions::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            locks_reclaimed: AtomicU64::new(0),
            lock_waits: AtomicU64::new(0),
        })
    }

    /// Overrides the cross-process lock tuning (tests and impatient
    /// callers).
    pub fn set_lock_options(&mut self, opts: LockOptions) {
        self.lock_opts = opts;
    }

    /// The on-disk lock path guarding `fp`'s materialization.
    pub fn lock_path_of(&self, fp: &Fingerprint) -> PathBuf {
        self.dir.join(format!("{}.lock", fp.hex()))
    }

    /// One shot at taking the on-disk lock: `O_EXCL`-creates it, or
    /// inspects the incumbent and reclaims it when stale.
    fn try_file_lock(&self, lock_path: &Path, waited: Duration) -> io::Result<LockAttempt> {
        match OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(lock_path)
        {
            Ok(mut f) => {
                // Best-effort identity stamp; a torn write parses as
                // stale, which is the safe direction.
                let _ = write!(f, "{} {}", std::process::id(), now_epoch_ms());
                let _ = f.sync_data();
                Ok(LockAttempt::Held(LockGuard {
                    path: lock_path.to_path_buf(),
                }))
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                let stale = match fs::read_to_string(lock_path) {
                    Ok(text) => match parse_lock(&text) {
                        Some((pid, stamp)) => {
                            pid_is_dead(pid)
                                || u128::from(now_epoch_ms().saturating_sub(stamp))
                                    > self.lock_opts.staleness.as_millis()
                        }
                        None => true, // torn/foreign content
                    },
                    // Raced with the holder's release: retry from the top.
                    Err(e) if e.kind() == io::ErrorKind::NotFound => false,
                    Err(_) => true,
                };
                if stale {
                    // Reclaim. Two waiters may race here and one may even
                    // delete a *fresh* lock re-created in the window — the
                    // result is at worst a duplicate materialization of
                    // identical bytes, never corruption (atomic rename).
                    let _ = fs::remove_file(lock_path);
                    self.locks_reclaimed.fetch_add(1, Ordering::Relaxed);
                    return Ok(LockAttempt::Busy); // retry the create
                }
                if waited >= self.lock_opts.max_wait {
                    return Ok(LockAttempt::Barged);
                }
                Ok(LockAttempt::Busy)
            }
            Err(e) => Err(e),
        }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path a fingerprint maps to (whether or not it exists).
    pub fn path_of(&self, fp: &Fingerprint) -> PathBuf {
        self.dir.join(format!("{}.dtr", fp.hex()))
    }

    /// Whether `fp` is already materialized.
    pub fn contains(&self, fp: &Fingerprint) -> bool {
        self.path_of(fp).is_file()
    }

    fn key_lock(&self, hex: &str) -> Arc<Mutex<()>> {
        // Poison recovery: the map only grows via `entry().or_default()`,
        // which cannot leave it half-updated, so a poisoned lock (a worker
        // panicked while holding it) still guards a consistent map.
        let mut keys = self.keys.lock().unwrap_or_else(|e| e.into_inner());
        keys.entry(hex.to_string()).or_default().clone()
    }

    /// Returns the path of `fp`'s trace, producing it first if absent.
    ///
    /// `produce` receives a started [`TraceWriter`] and pushes the items;
    /// the store finishes the stream, fsyncs, and renames into place. A
    /// lookup counts as a hit when the file already existed and as a miss
    /// when this call materialized it.
    ///
    /// # Errors
    ///
    /// I/O failures from the producer, the temp file, or the publish
    /// rename; the temp file is removed on failure.
    pub fn get_or_materialize<F>(&self, fp: &Fingerprint, produce: F) -> io::Result<PathBuf>
    where
        F: FnOnce(&mut TraceWriter<BufWriter<File>>) -> io::Result<()>,
    {
        let hex = fp.hex();
        let path = self.path_of(fp);
        // Poison recovery: the guarded critical section publishes via
        // atomic tmp+rename, so after a producer panic the key's file is
        // either absent (retry materializes) or complete — never torn.
        let lock = self.key_lock(&hex);
        let _guard = lock.lock().unwrap_or_else(|e| e.into_inner());
        if path.is_file() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(path);
        }
        // Cross-process turn-taking: hold `<key>.lock` while producing, or
        // wait for whoever does (re-probing for the published file), with
        // stale-lock reclamation and a bounded-wait barge.
        let lock_path = self.dir.join(format!("{hex}.lock"));
        let started = Instant::now();
        let mut waited_once = false;
        let _file_guard = loop {
            if path.is_file() {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(path);
            }
            match self.try_file_lock(&lock_path, started.elapsed())? {
                LockAttempt::Held(g) => break Some(g),
                LockAttempt::Barged => break None,
                LockAttempt::Busy => {
                    if !waited_once {
                        waited_once = true;
                        self.lock_waits.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::sleep(self.lock_opts.poll);
                }
            }
        };
        let tmp = self.dir.join(format!(
            ".tmp-{hex}-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let result = (|| {
            let file = File::create(&tmp)?;
            let mut writer = TraceWriter::new(BufWriter::new(file))?;
            produce(&mut writer)?;
            let (buffered, _count) = writer.finish()?;
            let file = buffered.into_inner().map_err(|e| e.into_error())?;
            file.sync_all()?;
            let bytes = file.metadata()?.len();
            drop(file);
            fs::rename(&tmp, &path)?;
            Ok(bytes)
        })();
        match result {
            Ok(bytes) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
                Ok(path)
            }
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Opens `fp`'s trace for prefetched streaming replay.
    ///
    /// # Errors
    ///
    /// `NotFound` if the fingerprint was never materialized, plus any
    /// header/format error from the reader.
    pub fn open_stream(&self, fp: &Fingerprint) -> io::Result<PrefetchReader> {
        let path = self.path_of(fp);
        let bytes = fs::metadata(&path)?.len();
        let reader = PrefetchReader::open(&path)?;
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        Ok(reader)
    }

    /// This process's session counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            locks_reclaimed: self.locks_reclaimed.load(Ordering::Relaxed),
            lock_waits: self.lock_waits.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::read_all;
    use das_cpu::TraceItem;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "das-trace-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn fp_of(name: &str) -> Fingerprint {
        let mut fp = Fingerprint::new();
        fp.write_str(name);
        fp
    }

    fn items(n: u64) -> Vec<TraceItem> {
        (0..n)
            .map(|i| TraceItem::load(1, 0x2000 + i * 64))
            .collect()
    }

    #[test]
    fn materialize_once_then_hit() {
        let dir = tmpdir("hit");
        let store = TraceStore::open(&dir).unwrap();
        let fp = fp_of("w1");
        assert!(!store.contains(&fp));
        let mut produced = 0u32;
        for _ in 0..3 {
            let path = store
                .get_or_materialize(&fp, |w| {
                    produced += 1;
                    for i in items(100) {
                        w.push(i)?;
                    }
                    Ok(())
                })
                .unwrap();
            assert!(path.is_file());
        }
        assert_eq!(produced, 1, "producer runs only on the miss");
        let s = store.stats();
        assert_eq!((s.misses, s.hits), (1, 2));
        assert!(s.bytes_written > 0);
        // A fresh store over the same directory sees the file as a hit.
        let store2 = TraceStore::open(&dir).unwrap();
        store2
            .get_or_materialize(&fp, |_| panic!("must not produce"))
            .unwrap();
        assert_eq!(store2.stats().hits, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_roundtrips_and_counts_bytes() {
        let dir = tmpdir("stream");
        let store = TraceStore::open(&dir).unwrap();
        let fp = fp_of("w2");
        let want = items(500);
        store
            .get_or_materialize(&fp, |w| {
                for &i in &want {
                    w.push(i)?;
                }
                Ok(())
            })
            .unwrap();
        let reader = store.open_stream(&fp).unwrap();
        let status = reader.status();
        let got: Vec<_> = reader.collect();
        assert_eq!(got, want);
        assert_eq!(status.error(), None);
        let s = store.stats();
        assert_eq!(s.bytes_read, s.bytes_written);
        // And the raw file decodes identically without the prefetcher.
        let bytes = fs::read(store.path_of(&fp)).unwrap();
        assert_eq!(read_all(bytes.as_slice()).unwrap(), want);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_producer_leaves_no_file() {
        let dir = tmpdir("fail");
        let store = TraceStore::open(&dir).unwrap();
        let fp = fp_of("w3");
        let err = store
            .get_or_materialize(&fp, |w| {
                w.push(TraceItem::load(0, 0))?;
                Err(io::Error::other("generator exploded"))
            })
            .unwrap_err();
        assert_eq!(err.to_string(), "generator exploded");
        assert!(!store.contains(&fp));
        let leftovers: Vec<_> = fs::read_dir(&dir).unwrap().collect();
        assert!(leftovers.is_empty(), "tmp file must be cleaned up");
        // The key is not poisoned: a retry can still materialize.
        store
            .get_or_materialize(&fp, |w| {
                for i in items(10) {
                    w.push(i)?;
                }
                Ok(())
            })
            .unwrap();
        assert!(store.contains(&fp));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_from_a_crashed_process_is_reclaimed() {
        let dir = tmpdir("stale-lock");
        let store = TraceStore::open(&dir).unwrap();
        let fp = fp_of("w-stale");
        // A crashed materializer left its lock behind: a pid that cannot
        // be alive (pid_max is far below this) and an ancient stamp.
        fs::create_dir_all(&dir).unwrap();
        fs::write(store.lock_path_of(&fp), "4294900000 1000").unwrap();
        let path = store
            .get_or_materialize(&fp, |w| {
                for i in items(50) {
                    w.push(i)?;
                }
                Ok(())
            })
            .unwrap();
        assert!(path.is_file(), "reclaimed lock lets the waiter produce");
        assert!(
            !store.lock_path_of(&fp).exists(),
            "reclaimed+released lock leaves no file"
        );
        let s = store.stats();
        assert_eq!(s.locks_reclaimed, 1);
        assert_eq!(s.misses, 1);

        // Torn lock content (crash mid-write) is also stale.
        let fp2 = fp_of("w-torn");
        fs::write(store.lock_path_of(&fp2), "gar").unwrap();
        store
            .get_or_materialize(&fp2, |w| {
                for i in items(10) {
                    w.push(i)?;
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(store.stats().locks_reclaimed, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_lock_is_waited_on_until_released() {
        let dir = tmpdir("live-lock");
        let mut store = TraceStore::open(&dir).unwrap();
        store.set_lock_options(LockOptions {
            staleness: Duration::from_secs(120),
            poll: Duration::from_millis(5),
            max_wait: Duration::from_secs(30),
        });
        let fp = fp_of("w-live");
        // A *live* holder (our own pid, fresh stamp): the materializer
        // must wait, not reclaim. Release the lock from another thread
        // after a delay and watch the wait be counted.
        let lock_path = store.lock_path_of(&fp);
        fs::write(
            &lock_path,
            format!("{} {}", std::process::id(), now_epoch_ms()),
        )
        .unwrap();
        let releaser = {
            let lock_path = lock_path.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(60));
                fs::remove_file(&lock_path).unwrap();
            })
        };
        store
            .get_or_materialize(&fp, |w| {
                for i in items(10) {
                    w.push(i)?;
                }
                Ok(())
            })
            .unwrap();
        releaser.join().unwrap();
        let s = store.stats();
        assert_eq!(s.locks_reclaimed, 0, "live lock must not be reclaimed");
        assert_eq!(s.lock_waits, 1);
        assert!(store.contains(&fp));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounded_wait_barges_past_a_hung_live_holder() {
        let dir = tmpdir("barge");
        let mut store = TraceStore::open(&dir).unwrap();
        store.set_lock_options(LockOptions {
            staleness: Duration::from_secs(120),
            poll: Duration::from_millis(5),
            max_wait: Duration::from_millis(40),
        });
        let fp = fp_of("w-hung");
        // Live pid + fresh stamp, never released: the waiter must barge
        // after max_wait instead of deadlocking — publication stays safe
        // because it is an atomic rename.
        fs::write(
            store.lock_path_of(&fp),
            format!("{} {}", std::process::id(), now_epoch_ms()),
        )
        .unwrap();
        store
            .get_or_materialize(&fp, |w| {
                for i in items(10) {
                    w.push(i)?;
                }
                Ok(())
            })
            .unwrap();
        assert!(store.contains(&fp));
        assert!(
            store.lock_path_of(&fp).exists(),
            "barging leaves the foreign lock alone"
        );
        assert_eq!(store.stats().locks_reclaimed, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_materialize_produces_once() {
        let dir = tmpdir("concurrent");
        let store = std::sync::Arc::new(TraceStore::open(&dir).unwrap());
        let fp = fp_of("w4");
        let produced = std::sync::Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let store = store.clone();
                let fp = fp.clone();
                let produced = produced.clone();
                s.spawn(move || {
                    store
                        .get_or_materialize(&fp, |w| {
                            produced.fetch_add(1, Ordering::Relaxed);
                            for i in items(200) {
                                w.push(i)?;
                            }
                            Ok(())
                        })
                        .unwrap();
                });
            }
        });
        assert_eq!(produced.load(Ordering::Relaxed), 1);
        let s = store.stats();
        assert_eq!((s.misses, s.hits), (1, 7));
        let _ = fs::remove_dir_all(&dir);
    }
}
