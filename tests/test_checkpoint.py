"""Tests for fuzzy checkpoints."""

from repro import SDComplex
from repro.recovery.checkpoint import take_checkpoint
from repro.wal.records import CheckpointData, RecordKind


def one_instance_complex():
    complex_ = SDComplex(n_data_pages=128)
    return complex_, complex_.add_instance(1)


class TestCheckpoint:
    def test_writes_begin_end_pair(self):
        complex_, s1 = one_instance_complex()
        take_checkpoint(s1)
        kinds = [r.kind for _, r in s1.log.scan()]
        assert kinds[-2:] == [RecordKind.BEGIN_CHECKPOINT,
                              RecordKind.END_CHECKPOINT]

    def test_master_record_points_at_begin(self):
        complex_, s1 = one_instance_complex()
        addr = take_checkpoint(s1)
        assert s1.log.master_record_offset == addr.offset
        record = s1.log.read_record_at(addr.offset)
        assert record.kind == RecordKind.BEGIN_CHECKPOINT

    def test_checkpoint_is_forced(self):
        complex_, s1 = one_instance_complex()
        take_checkpoint(s1)
        assert s1.log.flushed_offset == s1.log.end_offset

    def test_captures_dirty_pages_with_rec_addr(self):
        complex_, s1 = one_instance_complex()
        txn = s1.begin()
        page_id = s1.allocate_page(txn)
        s1.insert(txn, page_id, b"x")
        take_checkpoint(s1)
        end_record = [r for _, r in s1.log.scan()
                      if r.kind == RecordKind.END_CHECKPOINT][-1]
        data = CheckpointData.from_bytes(end_record.extra)
        assert page_id in data.dirty_pages
        rec_lsn, rec_addr = data.dirty_pages[page_id]
        assert rec_lsn == s1.pool.bcb(page_id).rec_lsn
        assert rec_addr == s1.pool.bcb(page_id).rec_addr
        s1.commit(txn)

    def test_captures_active_update_transactions_only(self):
        complex_, s1 = one_instance_complex()
        txn = s1.begin()
        page_id = s1.allocate_page(txn)
        s1.insert(txn, page_id, b"x")
        reader = s1.begin()  # never logs
        take_checkpoint(s1)
        end_record = [r for _, r in s1.log.scan()
                      if r.kind == RecordKind.END_CHECKPOINT][-1]
        data = CheckpointData.from_bytes(end_record.extra)
        assert txn.txn_id in data.transactions
        assert reader.txn_id not in data.transactions
        s1.commit(txn)
        s1.commit(reader)

    def test_clean_checkpoint_has_empty_tables(self):
        complex_, s1 = one_instance_complex()
        txn = s1.begin()
        page_id = s1.allocate_page(txn)
        s1.insert(txn, page_id, b"x")
        s1.commit(txn)
        s1.pool.flush_all()
        take_checkpoint(s1)
        end_record = [r for _, r in s1.log.scan()
                      if r.kind == RecordKind.END_CHECKPOINT][-1]
        data = CheckpointData.from_bytes(end_record.extra)
        assert data.dirty_pages == {}
        assert data.transactions == {}

    def test_survives_crash(self):
        complex_, s1 = one_instance_complex()
        take_checkpoint(s1)
        master = s1.log.master_record_offset
        s1.crash()
        assert s1.log.master_record_offset == master
        record = s1.log.read_record_at(master)
        assert record.kind == RecordKind.BEGIN_CHECKPOINT


class TestAnalysisReadsCheckpoint:
    def test_end_checkpoint_seeds_dpt_and_transaction_table(self):
        """The header walk decodes the END_CHECKPOINT record: its dirty
        pages and in-flight transactions reach analysis even when no
        later record mentions them."""
        from repro.recovery.aries import RestartSummary, analysis_pass
        from repro.wal.log_manager import LogManager
        from repro.wal.records import LogRecord, make_update

        log = LogManager(1)
        begin = log.append(LogRecord(kind=RecordKind.BEGIN_CHECKPOINT))
        data = CheckpointData(dirty_pages={7: (3, 0), 8: (4, 10)},
                              transactions={42: (5, 0), 43: (6, 0)})
        log.append(LogRecord(kind=RecordKind.END_CHECKPOINT,
                             extra=data.to_bytes()))
        log.master_record_offset = begin.offset
        update = make_update(44, 1, 9, 0, redo=b"r", undo=b"u")
        addr = log.append(update)
        log.append(LogRecord(kind=RecordKind.END, txn_id=43))
        summary = RestartSummary()
        dpt, losers = analysis_pass(log, summary)
        assert dpt == {7: (3, 0), 8: (4, 10), 9: (update.lsn, addr.offset)}
        assert losers == {42: 5, 44: update.lsn}
        assert summary.records_analyzed == 4
