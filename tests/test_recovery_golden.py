"""Golden pins for every restart flavour's observable outcome.

Each scenario drives a seeded history with checkpoints, partial
rollbacks, stolen uncommitted pages and loser transactions, fails it,
recovers it, and reduces the outcome to a fingerprint:

* the recovery summary fields (``RestartSummary`` /
  ``ClientRecoverySummary``);
* the ``RECOVERY_REDO`` / ``RECOVERY_SKIP`` / ``RECOVERY_CLR`` event
  sequence, as per-kind counts plus a SHA-256 over the ordered events;
* a SHA-256 digest of the shared disk after the pools are flushed.

The pinned values were captured from the full-record recovery scans
that predate header-first scanning; the header-first passes must
reproduce them exactly — same records redone, skipped and compensated,
in the same order, leaving the same bytes on disk.  The scale-out,
whole-complex fast, standby and single-page media scenarios were
pinned on the per-site redo loops that predate the shared redo kernel
(:mod:`repro.recovery.redo`), and the serial scale-out restart stands
in for the thread-pool redo whose disk images it used to prove equal.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.common.stats import (
    MERGE_COMPARISONS,
    REPL_APPLY_SKIPPED,
    REPL_RECORDS_APPLIED,
    StatsRegistry,
)
from repro.cs.system import CsSystem
from repro.faults.campaign import _disk_digest
from repro.faults.injector import NULL_INJECTOR
from repro.faults.scenarios import (
    build_replicated_sd,
    run_cs_workload,
    run_sd_workload,
)
from repro.obs import events as ev
from repro.obs.tracer import Tracer
from repro.recovery.checkpoint import take_checkpoint
from repro.recovery.media import (
    recover_database_from_media,
    recover_page_from_media,
)
from repro.replication import ACK_QUORUM
from repro.sd.complex import SDComplex
from repro.storage.image_copy import ImageCopy
from repro.workload.scaleout import ScaleoutConfig, run_scaleout

SEED = 11
_RECOVERY_KINDS = (ev.RECOVERY_REDO, ev.RECOVERY_SKIP, ev.RECOVERY_CLR)


def _events(tracer):
    picked = [(e.system, e.kind, e.fields) for e in tracer.events()
              if e.kind in _RECOVERY_KINDS]
    counts = {kind: sum(1 for _, k, _ in picked if k == kind)
              for kind in _RECOVERY_KINDS}
    blob = json.dumps(picked, sort_keys=True, separators=(",", ":"))
    return counts, hashlib.sha256(blob.encode()).hexdigest()


def _fingerprint(summaries, tracer, disk):
    counts, events_sha = _events(tracer)
    return {
        "summaries": {key: dataclasses.asdict(summary)
                      for key, summary in summaries.items()},
        "events": counts,
        "events_sha256": events_sha,
        "disk_sha256": _disk_digest(disk),
    }


# ----------------------------------------------------------------------
# shared-disks histories
# ----------------------------------------------------------------------
def _sd_history(scheme, mode):
    """Seeded SD history that ends with losers on both instances.

    Instance 1's loser spans a checkpoint, rolls back to a savepoint
    (CLRs before the crash) and has a page stolen to disk; instance 2's
    loser is forced but never committed."""
    tracer = Tracer()
    sd = SDComplex(n_data_pages=64, tracer=tracer, transfer_scheme=scheme,
                   restart_mode=mode)
    for system_id in (1, 2):
        sd.add_instance(system_id)
    image = ImageCopy.take(sd.disk)
    handles = run_sd_workload(sd, seed=SEED)
    s1, s2 = sd.instances[1], sd.instances[2]
    loser1 = s1.begin()
    s1.update(loser1, *handles[0], b"loser-1a")
    take_checkpoint(s1)
    s1.set_savepoint(loser1, "sp")
    s1.update(loser1, *handles[5], b"loser-1b")
    s1.rollback(loser1, to_savepoint="sp")
    s1.update(loser1, *handles[6], b"loser-1c")
    s1.pool.flush_all()
    winner = s1.begin()
    s1.update(winner, *handles[10], b"winner-1")
    s1.commit(winner)
    loser2 = s2.begin()
    s2.update(loser2, *handles[15], b"loser-2")
    s2.update(loser2, *handles[12], b"loser-2b")
    s2.log.force()
    return sd, tracer, image, handles


def _flush_sd(sd):
    for system_id in sorted(sd.instances):
        sd.instances[system_id].pool.flush_all()


def sd_eager_medium():
    sd, tracer, _, _ = _sd_history("medium", "eager")
    sd.crash_complex()
    summaries = sd.restart_complex()
    _flush_sd(sd)
    return _fingerprint(summaries, tracer, sd.disk)


def sd_eager_fast():
    sd, tracer, _, _ = _sd_history("fast", "eager")
    sd.crash_instance(1)
    summaries = {1: sd.restart_instance(1)}
    _flush_sd(sd)
    return _fingerprint(summaries, tracer, sd.disk)


def sd_instant(scheme):
    sd, tracer, _, _ = _sd_history(scheme, "instant")
    sd.crash_complex()
    summaries = sd.restart_complex()
    sd.instant_drain()
    _flush_sd(sd)
    return _fingerprint(summaries, tracer, sd.disk)


def sd_media():
    sd, _, image, _ = _sd_history("medium", "eager")
    sd.crash_complex()
    sd.restart_complex()
    _flush_sd(sd)
    page_ids = sorted(sd.disk.written_page_ids())
    for page_id in page_ids:
        sd.disk.lose_page(page_id)
    stats = StatsRegistry()
    rebuilt = recover_database_from_media(image, sd.local_logs(), sd.disk,
                                          page_ids, stats=stats)
    return {
        "pages": rebuilt,
        "merge_comparisons": stats.get(MERGE_COMPARISONS),
        "disk_sha256": _disk_digest(sd.disk),
    }


def sd_eager_fast_complex():
    """Whole-complex crash under the fast scheme: every instance's
    merged-log redo runs, and undo meets pages whose retained owner is
    another crashed system."""
    sd, tracer, _, _ = _sd_history("fast", "eager")
    sd.crash_complex()
    summaries = sd.restart_complex()
    _flush_sd(sd)
    return _fingerprint(summaries, tracer, sd.disk)


def sd_scaleout(scheme):
    """The 4-instance scale-out workload, a whole-complex crash and a
    serial restart of every instance."""
    tracer = Tracer()
    sd = SDComplex(n_data_pages=256, tracer=tracer, transfer_scheme=scheme)
    for system_id in range(1, 5):
        sd.add_instance(system_id)
    result = run_scaleout(sd, ScaleoutConfig(n_transactions=24,
                                             sharing_ratio=0.2, seed=SEED))
    assert result.committed > 0
    sd.crash_complex()
    summaries = sd.restart_complex()
    _flush_sd(sd)
    return _fingerprint(summaries, tracer, sd.disk)


def sd_fixer_fallback():
    """Whole-complex crash after a loser's page migrated to a system
    that committed on it: undo reaches the page through the SD fixer's
    merged-log fallback, because its retained owner crashed too."""
    tracer = Tracer()
    sd = SDComplex(n_data_pages=64, tracer=tracer)
    s1, s2 = sd.add_instance(1), sd.add_instance(2)
    txn = s1.begin()
    page_id = s1.allocate_page(txn)
    slot = s1.insert(txn, page_id, b"init")
    s1.commit(txn)
    loser = s1.begin()
    s1.insert(loser, page_id, b"uncommitted")
    winner = s2.begin()
    s2.update(winner, page_id, slot, b"committed-by-s2")
    s2.commit(winner)
    sd.crash_complex()
    summaries = sd.restart_complex()
    _flush_sd(sd)
    return _fingerprint(summaries, tracer, sd.disk)


def sd_media_page():
    """``recover_page_from_media`` on the page instance 1's loser
    updated, rolled back and compensated."""
    sd, _, image, handles = _sd_history("medium", "eager")
    sd.crash_complex()
    sd.restart_complex()
    _flush_sd(sd)
    page_id = handles[0][0]
    sd.disk.lose_page(page_id)
    stats = StatsRegistry()
    page = recover_page_from_media(page_id, image, sd.local_logs(),
                                   disk=sd.disk, stats=stats)
    return {
        "page_lsn": int(page.page_lsn),
        "merge_comparisons": stats.get(MERGE_COMPARISONS),
        "disk_sha256": _disk_digest(sd.disk),
    }


def standby_apply():
    """The hot standby's continuous redo over the shipped stream, then
    a promotion whose restart undoes the primary's in-flight loser."""
    sd, tracer = build_replicated_sd(NULL_INJECTOR, SEED, ACK_QUORUM)
    handles = run_sd_workload(sd, SEED)
    s1 = sd.instances[1]
    loser = s1.begin()
    s1.update(loser, *handles[3], b"standby-loser")
    s1.log.force()
    sd.replication.drain()
    standby_id = min(sd.replication.standbys())
    standby = sd.replication.standbys()[standby_id]
    applied = {name: standby.stats.get(name)
               for name in (REPL_RECORDS_APPLIED, REPL_APPLY_SKIPPED)}
    sd.crash_complex()
    promoted = standby.promote()
    counts, events_sha = _events(tracer)
    return {
        "standby": standby_id,
        "stats": applied,
        "events": counts,
        "events_sha256": events_sha,
        "disk_sha256": _disk_digest(promoted.disk),
    }


# ----------------------------------------------------------------------
# client-server histories
# ----------------------------------------------------------------------
def _cs_history(mode):
    """Seeded CS history: client 1's loser spans a client checkpoint and
    has its pages shipped back; client 2's loser is shipped too."""
    tracer = Tracer()
    cs = CsSystem(n_data_pages=64, tracer=tracer)
    cs.server.restart_mode = mode
    for client_id in (1, 2):
        cs.add_client(client_id)
    handles = run_cs_workload(cs, seed=SEED)
    c1, c2 = cs.clients[1], cs.clients[2]
    loser1 = c1.begin()
    c1.update(loser1, *handles[0], b"loser-1a")
    c1.checkpoint()
    c1.set_savepoint(loser1, "sp")
    c1.update(loser1, *handles[5], b"loser-1b")
    c1.rollback(loser1, to_savepoint="sp")
    c1.update(loser1, *handles[6], b"loser-1c")
    c1.flush_all()
    winner = c1.begin()
    c1.update(winner, *handles[10], b"winner-1")
    c1.commit(winner)
    loser2 = c2.begin()
    c2.update(loser2, *handles[15], b"loser-2")
    c2.flush_all()
    return cs, tracer


def cs_client():
    cs, tracer = _cs_history("eager")
    cs.crash_client(1)
    summary = cs.recover_client(1)
    cs.quiesce()
    return _fingerprint({1: summary}, tracer, cs.server.disk)


def cs_server(mode):
    cs, tracer = _cs_history(mode)
    cs.crash_server()
    summary = cs.restart_server()
    if mode == "instant":
        cs.server.instant_drain()
    cs.quiesce()
    return _fingerprint({0: summary}, tracer, cs.server.disk)


SCENARIOS = {
    "sd_eager_medium": sd_eager_medium,
    "sd_eager_fast": sd_eager_fast,
    "sd_instant_medium": lambda: sd_instant("medium"),
    "sd_instant_fast": lambda: sd_instant("fast"),
    "sd_media": sd_media,
    "sd_eager_fast_complex": sd_eager_fast_complex,
    "sd_fixer_fallback": sd_fixer_fallback,
    "sd_scaleout_medium": lambda: sd_scaleout("medium"),
    "sd_scaleout_fast": lambda: sd_scaleout("fast"),
    "sd_media_page": sd_media_page,
    "standby_apply": standby_apply,
    "cs_client": cs_client,
    "cs_server_eager": lambda: cs_server("eager"),
    "cs_server_instant": lambda: cs_server("instant"),
}

GOLDEN = {
    "cs_client": {
        "disk_sha256": "500f822cc065af45d25a3a7f2dea1cca967dbe9fe9634d9ac3da7f0f2c8a58a1",
        "events": {
            "recovery.clr": 2,
            "recovery.redo": 1,
            "recovery.skip": 0
        },
        "events_sha256": "39507d1003d109f532bb524f8c3343a40ab340cd281be03d4b1801f19b364e84",
        "summaries": {
            "1": {
                "clrs_written": 2,
                "loser_transactions": 1,
                "records_redone": 1,
                "records_scanned": 7,
                "redo_skipped_buffer_hit": 4,
                "redo_skipped_by_lsn": 0
            }
        }
    },
    "cs_server_eager": {
        "disk_sha256": "6f0ea741744e12f404dd67adf365e348f2f855d3707e423c041d26518cc3fccb",
        "events": {
            "recovery.clr": 2,
            "recovery.redo": 7,
            "recovery.skip": 55
        },
        "events_sha256": "9f7716fc84bac0928d2eaa9faf993479fa6f5651d4a38af55262c0265b2eda49",
        "summaries": {
            "0": {
                "clrs_written": 2,
                "dirty_pages_at_crash": 5,
                "loser_transactions": 1,
                "records_analyzed": 91,
                "records_redone": 7,
                "redo_scan_start": 0,
                "redo_skipped_by_lsn": 55
            }
        }
    },
    "cs_server_instant": {
        "disk_sha256": "6f0ea741744e12f404dd67adf365e348f2f855d3707e423c041d26518cc3fccb",
        "events": {
            "recovery.clr": 2,
            "recovery.redo": 7,
            "recovery.skip": 55
        },
        "events_sha256": "d65caaa9729dac22f2f754f877df339d6bd3ed939a373570becc55d0cb1fe1ad",
        "summaries": {
            "0": {
                "clrs_written": 2,
                "dirty_pages_at_crash": 5,
                "loser_transactions": 1,
                "records_analyzed": 91,
                "records_redone": 7,
                "redo_scan_start": 0,
                "redo_skipped_by_lsn": 55
            }
        }
    },
    "sd_eager_fast": {
        "disk_sha256": "c19fbad1a7edca401866461b9aa2d5f57a0ebf18fc98525781daa40237d0d7bc",
        "events": {
            "recovery.clr": 2,
            "recovery.redo": 1,
            "recovery.skip": 50
        },
        "events_sha256": "88f3b17eb0914d13e7fa9c1df3099d5a63e12cc22160639bbcb0574a7ba14e99",
        "summaries": {
            "1": {
                "clrs_written": 2,
                "dirty_pages_at_crash": 3,
                "loser_transactions": 1,
                "records_analyzed": 7,
                "records_redone": 1,
                "redo_scan_start": 0,
                "redo_skipped_by_lsn": 50
            }
        }
    },
    "sd_eager_fast_complex": {
        "disk_sha256": "babb0e216cce9fddd8b746f4c0600fc1022cac173fa9a92af2c2cf4e7fdb1281",
        "events": {
            "recovery.clr": 4,
            "recovery.redo": 4,
            "recovery.skip": 109
        },
        "events_sha256": "9b973007f630a0d1da61e7f2b590e5c4de2072deac2d867f4b32522c29673918",
        "summaries": {
            "1": {
                "clrs_written": 2,
                "dirty_pages_at_crash": 3,
                "loser_transactions": 1,
                "records_analyzed": 7,
                "records_redone": 1,
                "redo_scan_start": 0,
                "redo_skipped_by_lsn": 50
            },
            "2": {
                "clrs_written": 2,
                "dirty_pages_at_crash": 4,
                "loser_transactions": 1,
                "records_analyzed": 30,
                "records_redone": 3,
                "redo_scan_start": 0,
                "redo_skipped_by_lsn": 59
            }
        }
    },
    "sd_eager_medium": {
        "disk_sha256": "babb0e216cce9fddd8b746f4c0600fc1022cac173fa9a92af2c2cf4e7fdb1281",
        "events": {
            "recovery.clr": 4,
            "recovery.redo": 4,
            "recovery.skip": 19
        },
        "events_sha256": "2a035e19240d2d621456b3b1f535ba91b95a6eae912b0f964fa9cbaf0b5ae8c8",
        "summaries": {
            "1": {
                "clrs_written": 2,
                "dirty_pages_at_crash": 3,
                "loser_transactions": 1,
                "records_analyzed": 7,
                "records_redone": 1,
                "redo_scan_start": 4122,
                "redo_skipped_by_lsn": 4
            },
            "2": {
                "clrs_written": 2,
                "dirty_pages_at_crash": 4,
                "loser_transactions": 1,
                "records_analyzed": 30,
                "records_redone": 3,
                "redo_scan_start": 0,
                "redo_skipped_by_lsn": 15
            }
        }
    },
    "sd_fixer_fallback": {
        "disk_sha256": "e815b405007bc2d5e7d5b972702e78be9176c6355bd822dccca2d57bd95deaae",
        "events": {
            "recovery.clr": 1,
            "recovery.redo": 1,
            "recovery.skip": 4
        },
        "events_sha256": "a6cadc34e6318bfca142ea02650aac9b4439e147b96247982ab16c8f2250228f",
        "summaries": {
            "1": {
                "clrs_written": 1,
                "dirty_pages_at_crash": 2,
                "loser_transactions": 1,
                "records_analyzed": 6,
                "records_redone": 1,
                "redo_scan_start": 0,
                "redo_skipped_by_lsn": 3
            },
            "2": {
                "clrs_written": 0,
                "dirty_pages_at_crash": 1,
                "loser_transactions": 0,
                "records_analyzed": 2,
                "records_redone": 0,
                "redo_scan_start": 0,
                "redo_skipped_by_lsn": 1
            }
        }
    },
    "sd_instant_fast": {
        "disk_sha256": "babb0e216cce9fddd8b746f4c0600fc1022cac173fa9a92af2c2cf4e7fdb1281",
        "events": {
            "recovery.clr": 4,
            "recovery.redo": 4,
            "recovery.skip": 109
        },
        "events_sha256": "a7358a1daa27514d27897225bcc720770e29f51fa54bad0275e4ee624e4ee866",
        "summaries": {
            "1": {
                "clrs_written": 2,
                "dirty_pages_at_crash": 3,
                "loser_transactions": 1,
                "records_analyzed": 7,
                "records_redone": 1,
                "redo_scan_start": 4122,
                "redo_skipped_by_lsn": 50
            },
            "2": {
                "clrs_written": 2,
                "dirty_pages_at_crash": 4,
                "loser_transactions": 1,
                "records_analyzed": 30,
                "records_redone": 3,
                "redo_scan_start": 0,
                "redo_skipped_by_lsn": 59
            }
        }
    },
    "sd_instant_medium": {
        "disk_sha256": "babb0e216cce9fddd8b746f4c0600fc1022cac173fa9a92af2c2cf4e7fdb1281",
        "events": {
            "recovery.clr": 4,
            "recovery.redo": 4,
            "recovery.skip": 19
        },
        "events_sha256": "88f33d5cb2282ff84201a9bd823ac27f874328e815f23ede30af90b41604a954",
        "summaries": {
            "1": {
                "clrs_written": 2,
                "dirty_pages_at_crash": 3,
                "loser_transactions": 1,
                "records_analyzed": 7,
                "records_redone": 1,
                "redo_scan_start": 4122,
                "redo_skipped_by_lsn": 4
            },
            "2": {
                "clrs_written": 2,
                "dirty_pages_at_crash": 4,
                "loser_transactions": 1,
                "records_analyzed": 30,
                "records_redone": 3,
                "redo_scan_start": 0,
                "redo_skipped_by_lsn": 15
            }
        }
    },
    "sd_media": {
        "disk_sha256": "babb0e216cce9fddd8b746f4c0600fc1022cac173fa9a92af2c2cf4e7fdb1281",
        "merge_comparisons": 98,
        "pages": 5
    },
    "sd_media_page": {
        "disk_sha256": "babb0e216cce9fddd8b746f4c0600fc1022cac173fa9a92af2c2cf4e7fdb1281",
        "merge_comparisons": 98,
        "page_lsn": 89
    },
    "sd_scaleout_fast": {
        "disk_sha256": "5cdbf0ad6eea2c97d8c2721a7631d66308e82f68e773533e49ce562b8465da7f",
        "events": {
            "recovery.clr": 0,
            "recovery.redo": 291,
            "recovery.skip": 319
        },
        "events_sha256": "75b2ff66c5c6d18ff24da149bfd4bdcb939dc25656df2ce5e5f60fee2017856a",
        "summaries": {
            "1": {
                "clrs_written": 0,
                "dirty_pages_at_crash": 21,
                "loser_transactions": 0,
                "records_analyzed": 242,
                "records_redone": 291,
                "redo_scan_start": 0,
                "redo_skipped_by_lsn": 0
            },
            "2": {
                "clrs_written": 0,
                "dirty_pages_at_crash": 8,
                "loser_transactions": 0,
                "records_analyzed": 37,
                "records_redone": 0,
                "redo_scan_start": 0,
                "redo_skipped_by_lsn": 112
            },
            "3": {
                "clrs_written": 0,
                "dirty_pages_at_crash": 7,
                "loser_transactions": 0,
                "records_analyzed": 31,
                "records_redone": 0,
                "redo_scan_start": 0,
                "redo_skipped_by_lsn": 93
            },
            "4": {
                "clrs_written": 0,
                "dirty_pages_at_crash": 8,
                "loser_transactions": 0,
                "records_analyzed": 35,
                "records_redone": 0,
                "redo_scan_start": 0,
                "redo_skipped_by_lsn": 114
            }
        }
    },
    "sd_scaleout_medium": {
        "disk_sha256": "1a601cb2ae8451c18174d7fce99137dec8994a5dfb15a33b90d2123fb503cbc0",
        "events": {
            "recovery.clr": 0,
            "recovery.redo": 127,
            "recovery.skip": 164
        },
        "events_sha256": "72ae7de6ef4be7f5db12e9f26a3fb7ac647ad9e62eb764f58e276a5548427ba6",
        "summaries": {
            "1": {
                "clrs_written": 0,
                "dirty_pages_at_crash": 21,
                "loser_transactions": 0,
                "records_analyzed": 242,
                "records_redone": 75,
                "redo_scan_start": 0,
                "redo_skipped_by_lsn": 146
            },
            "2": {
                "clrs_written": 0,
                "dirty_pages_at_crash": 8,
                "loser_transactions": 0,
                "records_analyzed": 37,
                "records_redone": 18,
                "redo_scan_start": 0,
                "redo_skipped_by_lsn": 8
            },
            "3": {
                "clrs_written": 0,
                "dirty_pages_at_crash": 7,
                "loser_transactions": 0,
                "records_analyzed": 31,
                "records_redone": 14,
                "redo_scan_start": 0,
                "redo_skipped_by_lsn": 6
            },
            "4": {
                "clrs_written": 0,
                "dirty_pages_at_crash": 8,
                "loser_transactions": 0,
                "records_analyzed": 35,
                "records_redone": 20,
                "redo_scan_start": 0,
                "redo_skipped_by_lsn": 4
            }
        }
    },
    "standby_apply": {
        "disk_sha256": "3b9eec6d76c1ce63f5301c33d26d0ac1afe28a36763ca790f470518b040b4e9e",
        "events": {
            "recovery.clr": 1,
            "recovery.redo": 116,
            "recovery.skip": 58
        },
        "events_sha256": "1555bd2e17c3542b6ac03281760381765f9d470064ba1239cc3d27c683827b4a",
        "standby": 9,
        "stats": {
            "repl.apply_skipped": 0,
            "repl.records_applied": 116
        }
    }
}


def _normalise(value):
    """JSON round trip: summary dict keys become strings, as pinned."""
    return json.loads(json.dumps(value, sort_keys=True))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_recovery_outcome_matches_golden(name):
    assert _normalise(SCENARIOS[name]()) == GOLDEN[name]


if __name__ == "__main__":  # print the current fingerprints
    print(json.dumps({name: _normalise(fn()) for name, fn
                      in sorted(SCENARIOS.items())}, indent=1,
                     sort_keys=True))
