"""Unit tests for the packed TreeMem entry and the banked SRAM model."""

import pytest

from repro.core.treemem import (
    BankedTreeMemory,
    ChildStatus,
    NULL_POINTER,
    TreeMemBank,
    TreeMemEntry,
)


class TestTreeMemEntry:
    def test_default_entry_is_an_unknown_leaf(self):
        entry = TreeMemEntry()
        assert entry.is_leaf()
        assert entry.pointer == NULL_POINTER
        assert all(tag == ChildStatus.UNKNOWN for tag in entry.child_tags)
        assert entry.probability_raw == 0

    def test_tag_accessors(self):
        entry = TreeMemEntry()
        entry.set_tag(3, ChildStatus.OCCUPIED)
        assert entry.tag(3) == ChildStatus.OCCUPIED
        assert entry.known_children() == [3]

    def test_tag_index_bounds(self):
        entry = TreeMemEntry()
        with pytest.raises(IndexError):
            entry.tag(8)
        with pytest.raises(IndexError):
            entry.set_tag(-1, ChildStatus.FREE)

    def test_tags_length_validation(self):
        with pytest.raises(ValueError):
            TreeMemEntry(child_tags=[ChildStatus.UNKNOWN] * 4)

    def test_pointer_width_validation(self):
        with pytest.raises(ValueError):
            TreeMemEntry(pointer=1 << 33)

    def test_copy_is_deep_for_tags(self):
        entry = TreeMemEntry()
        clone = entry.copy()
        clone.set_tag(0, ChildStatus.INNER)
        assert entry.tag(0) == ChildStatus.UNKNOWN

    def test_pack_layout_matches_figure5(self):
        """Bits [63:32] pointer, [31:16] tags (2 bits/child), [15:0] probability."""
        entry = TreeMemEntry(pointer=0x1234, probability_raw=5)
        entry.set_tag(0, ChildStatus.OCCUPIED)   # bits 17:16 = 01
        entry.set_tag(2, ChildStatus.INNER)      # bits 21:20 = 11
        word = entry.pack()
        assert (word >> 32) & 0xFFFFFFFF == 0x1234
        assert (word >> 16) & 0xFFFF == 0b11_00_01  # child2=11, child1=00, child0=01
        assert word & 0xFFFF == 5

    def test_pack_unpack_roundtrip(self):
        entry = TreeMemEntry(pointer=77, probability_raw=-123)
        entry.set_tag(1, ChildStatus.FREE)
        entry.set_tag(7, ChildStatus.OCCUPIED)
        restored = TreeMemEntry.unpack(entry.pack())
        assert restored.pointer == 77
        assert restored.probability_raw == -123
        assert restored.tag(1) == ChildStatus.FREE
        assert restored.tag(7) == ChildStatus.OCCUPIED

    def test_unpack_rejects_oversized_words(self):
        with pytest.raises(ValueError):
            TreeMemEntry.unpack(1 << 64)

    def test_negative_probability_occupies_low_16_bits_only(self):
        entry = TreeMemEntry(probability_raw=-1)
        word = entry.pack()
        assert word & 0xFFFF == 0xFFFF
        assert TreeMemEntry.unpack(word).probability_raw == -1

    def test_word_fits_in_64_bits(self):
        entry = TreeMemEntry(pointer=0xFFFFFFFF, probability_raw=-32768)
        for index in range(8):
            entry.set_tag(index, ChildStatus.INNER)
        assert entry.pack() < (1 << 64)


class TestTreeMemBank:
    def test_read_of_unwritten_address_is_none(self):
        bank = TreeMemBank(0, 16)
        assert bank.read(3) is None

    def test_write_then_read(self):
        bank = TreeMemBank(0, 16)
        bank.write(5, TreeMemEntry(probability_raw=9))
        assert bank.read(5).probability_raw == 9

    def test_reads_and_writes_are_counted(self):
        bank = TreeMemBank(0, 16)
        bank.write(1, TreeMemEntry())
        bank.read(1)
        bank.read(2)
        assert bank.write_accesses == 1
        assert bank.read_accesses == 2

    def test_clear_invalidates(self):
        bank = TreeMemBank(0, 16)
        bank.write(1, TreeMemEntry())
        bank.clear(1)
        assert bank.read(1) is None

    def test_address_bounds(self):
        bank = TreeMemBank(0, 16)
        with pytest.raises(IndexError):
            bank.read(16)
        with pytest.raises(IndexError):
            bank.write(-1, TreeMemEntry())

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TreeMemBank(0, 0)

    def test_write_stores_a_copy(self):
        bank = TreeMemBank(0, 4)
        entry = TreeMemEntry(probability_raw=1)
        bank.write(0, entry)
        entry.probability_raw = 99
        assert bank.read(0).probability_raw == 1

    def test_occupied_entries(self):
        bank = TreeMemBank(0, 8)
        bank.write(0, TreeMemEntry())
        bank.write(3, TreeMemEntry())
        assert bank.occupied_entries() == 2


class TestBankedTreeMemory:
    def test_requires_eight_banks(self):
        with pytest.raises(ValueError):
            BankedTreeMemory(4, 16)

    def test_single_entry_access(self):
        memory = BankedTreeMemory(8, 16)
        memory.write_entry(2, 5, TreeMemEntry(probability_raw=7))
        assert memory.read_entry(2, 5).probability_raw == 7
        assert memory.read_entry(2, 4) is None

    def test_bank_index_bounds(self):
        memory = BankedTreeMemory(8, 16)
        with pytest.raises(IndexError):
            memory.read_entry(0, 8)
        with pytest.raises(IndexError):
            memory.write_entry(0, -1, TreeMemEntry())

    def test_row_bounds(self):
        """The typed arrays would wrap a negative index: the API must not."""
        memory = BankedTreeMemory(8, 16)
        for row in (-1, 16):
            with pytest.raises(IndexError):
                memory.read_entry(row, 0)
            with pytest.raises(IndexError):
                memory.write_entry(row, 0, TreeMemEntry())

    def test_entries_read_back_as_written(self):
        """read_entry decodes the stored fields into an equal, independent view."""
        memory = BankedTreeMemory(8, 16)
        entry = TreeMemEntry(pointer=9, probability_raw=-300)
        entry.set_tag(2, ChildStatus.INNER)
        entry.set_tag(5, ChildStatus.FREE)
        memory.write_entry(3, 4, entry)
        assert memory.read_entry(3, 4) == entry
        memory.read_entry(3, 4).set_tag(0, ChildStatus.OCCUPIED)
        assert memory.read_entry(3, 4) == entry

    def test_row_access_touches_all_banks(self):
        memory = BankedTreeMemory(8, 16)
        entries = [TreeMemEntry(probability_raw=index) for index in range(8)]
        memory.write_row(3, entries)
        row = memory.read_row(3)
        assert [entry.probability_raw for entry in row] == list(range(8))
        assert memory.row_reads == 1
        assert memory.row_writes == 1
        assert memory.total_reads() == 8
        assert memory.total_writes() == 8

    def test_row_write_length_validation(self):
        memory = BankedTreeMemory(8, 16)
        with pytest.raises(ValueError):
            memory.write_row(0, [TreeMemEntry()] * 4)

    def test_row_write_with_none_clears_that_bank(self):
        memory = BankedTreeMemory(8, 16)
        memory.write_entry(1, 0, TreeMemEntry())
        memory.write_row(1, [None] * 8)
        assert memory.read_entry(1, 0) is None

    def test_clear_row(self):
        memory = BankedTreeMemory(8, 16)
        memory.write_row(2, [TreeMemEntry()] * 8)
        memory.clear_row(2)
        assert all(entry is None for entry in memory.read_row(2))

    def test_utilization(self):
        memory = BankedTreeMemory(8, 4)
        assert memory.utilization() == 0.0
        memory.write_row(0, [TreeMemEntry()] * 8)
        assert memory.utilization() == pytest.approx(8 / 32)
        assert memory.occupied_entries() == 8

    def test_occupied_entries_is_a_live_count(self):
        """Overwrites, partial row writes and clears keep the count equal to a scan."""
        memory = BankedTreeMemory(8, 4)
        memory.write_entry(1, 0, TreeMemEntry())
        memory.write_entry(1, 0, TreeMemEntry(probability_raw=3))  # overwrite: still one
        memory.write_row(2, [TreeMemEntry()] * 8)
        memory.write_row(2, [TreeMemEntry(), None] * 4)  # four written, four cleared
        memory.clear_row(3)  # clearing an empty row changes nothing
        assert memory.occupied_entries() == 5 == sum(sum(bank.valid) for bank in memory.banks)
        memory.clear_row(2)
        assert memory.occupied_entries() == 1 == sum(sum(bank.valid) for bank in memory.banks)
