"""Unit tests for the decoded TreeMem entry and the banked SRAM model.

The SRAM image is written by the PE kernel (and a restore); these tests
write it through the oracle's write model, ``oracle_pe.store`` /
``clear_row``, which tallies what the kernel tallies, in a
``oracle_pe.tallying`` block whose words the bank's counts then read.
"""

import ctypes

import pytest

from repro.core.treemem import (
    BANK_FIELDS,
    INITIAL_ROWS,
    BankedTreeMemory,
    ChildStatus,
    NULL_POINTER,
    SRAMImage,
    TreeMemBank,
    TreeMemEntry,
)

import oracle_pe


class TestTreeMemEntry:
    def test_default_entry_is_an_unknown_leaf(self):
        entry = TreeMemEntry()
        assert entry.pointer == NULL_POINTER
        assert all(tag == ChildStatus.UNKNOWN for tag in entry.child_tags)
        assert entry.probability_raw == 0

    def test_tag_accessor(self):
        entry = TreeMemEntry(child_tags=[ChildStatus.UNKNOWN] * 3 + [ChildStatus.OCCUPIED] + [ChildStatus.FREE] * 4)
        assert entry.tag(3) == ChildStatus.OCCUPIED
        assert entry.tag(4) == ChildStatus.FREE

    def test_tag_index_bounds(self):
        entry = TreeMemEntry()
        with pytest.raises(IndexError):
            entry.tag(8)
        with pytest.raises(IndexError):
            entry.tag(-1)

    def test_tags_length_validation(self):
        with pytest.raises(ValueError):
            TreeMemEntry(child_tags=[ChildStatus.UNKNOWN] * 4)

    def test_pointer_width_validation(self):
        with pytest.raises(ValueError):
            TreeMemEntry(pointer=1 << 33)

    def test_tag_word_layout_matches_figure5(self):
        """Two bits per child, child 0 in the low bits: the entry's bits [31:16]."""
        tags = TreeMemEntry.tags_from_word(0b11_00_01)  # child2=11, child1=00, child0=01
        assert tags == [ChildStatus.OCCUPIED, ChildStatus.UNKNOWN, ChildStatus.INNER] + [ChildStatus.UNKNOWN] * 5
        assert TreeMemEntry.tags_from_word(0xAAAA) == [ChildStatus.FREE] * 8


class TestTreeMemBank:
    def test_read_of_unwritten_address_is_none(self):
        bank = TreeMemBank(0, 16)
        assert bank.read(3) is None

    def test_stored_fields_read_back(self):
        bank = TreeMemBank(0, 16)
        with oracle_pe.tallying(bank) as tally:
            oracle_pe.store(tally, bank, 5, 9, 0b10, -7)
        assert bank.read(5) == TreeMemEntry(9, [ChildStatus.FREE] + [ChildStatus.UNKNOWN] * 7, -7)

    def test_reads_and_writes_are_counted(self):
        bank = TreeMemBank(0, 16)
        with oracle_pe.tallying(bank) as tally:
            oracle_pe.store(tally, bank, 1, NULL_POINTER, 0, 0)
        bank.read(1)
        bank.read(2)
        assert bank.write_accesses == 1
        assert bank.read_accesses == 2

    def test_address_bounds(self):
        bank = TreeMemBank(0, 16)
        with pytest.raises(IndexError):
            bank.read(16)
        with pytest.raises(IndexError):
            bank.read(-1)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TreeMemBank(0, 0)

    def test_occupied_entries(self):
        bank = TreeMemBank(0, 8)
        with oracle_pe.tallying(bank) as tally:
            oracle_pe.store(tally, bank, 0, NULL_POINTER, 0, 0)
            oracle_pe.store(tally, bank, 3, NULL_POINTER, 0, 0)
        assert bank.occupied_entries() == 2


class TestSRAMImage:
    def test_grow_doubles_up_to_the_bank_size(self):
        """64 -> 128 -> 200 at a bank size that is no power of two; a bank built alone grows its own image."""
        bank = TreeMemBank(0, 200)
        assert bank.rows == INITIAL_ROWS == 64
        bank.image.grow(65)
        assert bank.rows == 128
        bank.image.grow(129)
        assert bank.rows == 200
        assert bank.read(199) is None and bank.pointers[199] == NULL_POINTER
        bank.image.grow(400)  # already at the bank size
        assert bank.rows == 200

    def test_grow_keeps_every_pe_s_rows_and_points_every_struct_at_the_new_arrays(self):
        image = SRAMImage(3, 1000)
        memory = BankedTreeMemory(8, 1000, image=image, pe=2)
        with oracle_pe.tallying(memory) as tally:
            oracle_pe.store(tally, memory.banks[7], 63, 5, 0b11, -9)
        image.grow(200)
        assert memory.rows == 256
        assert memory.read_entry(63, 7) == TreeMemEntry(5, [ChildStatus.INNER] + [ChildStatus.UNKNOWN] * 7, -9)
        assert memory.read_entry(255, 7) is None and memory.banks[7].pointers[255] == NULL_POINTER
        for pe, struct in enumerate(image.kernel):
            assert struct.capacity == 256
            for name, _ in BANK_FIELDS:
                arrays = getattr(image, name)
                assert list(getattr(struct, name)) == [arrays[pe, bank].ctypes.data for bank in range(8)]
        assert list(image.table) == [ctypes.addressof(struct) for struct in image.kernel]

    def test_the_state_arrays_never_move(self):
        image = SRAMImage(2, 300, reserved_rows=1)
        before = [getattr(image, name).ctypes.data for name in ("allocator", "stack", "stacked", "roots")]
        image.grow(300)
        assert [getattr(image, name).ctypes.data for name in ("allocator", "stack", "stacked", "roots")] == before
        assert image.allocator[:, 0].tolist() == [1, 1]  # every PE's next fresh row
        assert [struct.stack for struct in image.kernel] == [before[1], before[1] + 4 * 300]


class TestBankedTreeMemory:
    def test_requires_eight_banks(self):
        with pytest.raises(ValueError):
            BankedTreeMemory(4, 16)

    def test_utilization(self):
        memory = BankedTreeMemory(8, 4)
        assert memory.occupied_entries() == 0
        with oracle_pe.tallying(memory) as tally:
            for bank in memory.banks:
                oracle_pe.store(tally, bank, 0, NULL_POINTER, 0, 0)
        assert memory.occupied_entries() == 8
        with oracle_pe.tallying(memory) as tally:
            oracle_pe.clear_row(tally, memory, 0)
        assert memory.occupied_entries() == 0

    def test_single_entry_access(self):
        memory = BankedTreeMemory(8, 16)
        with oracle_pe.tallying(memory) as tally:
            oracle_pe.store(tally, memory.banks[5], 2, NULL_POINTER, 0, 7)
        assert memory.read_entry(2, 5).probability_raw == 7
        assert memory.read_entry(2, 4) is None

    def test_bank_index_bounds(self):
        memory = BankedTreeMemory(8, 16)
        with pytest.raises(IndexError):
            memory.read_entry(0, 8)
        with pytest.raises(IndexError):
            memory.read_entry(0, -1)

    def test_row_bounds(self):
        """The typed arrays would wrap a negative index: the API must not."""
        memory = BankedTreeMemory(8, 16)
        for row in (-1, 16):
            with pytest.raises(IndexError):
                memory.read_entry(row, 0)

    def test_entries_read_back_as_independent_views(self):
        """read_entry decodes the stored fields into an equal, independent view."""
        memory = BankedTreeMemory(8, 16)
        with oracle_pe.tallying(memory) as tally:
            oracle_pe.store(tally, memory.banks[4], 3, 9, 0b10_0000_11_0000, -300)
        entry = memory.read_entry(3, 4)
        assert entry.pointer == 9 and entry.probability_raw == -300
        assert entry.tag(2) == ChildStatus.INNER and entry.tag(5) == ChildStatus.FREE
        entry.child_tags[0] = ChildStatus.OCCUPIED
        assert memory.read_entry(3, 4).tag(0) == ChildStatus.UNKNOWN

    def test_occupied_entries_is_a_live_count(self):
        """Overwrites and row clears keep the count equal to a scan."""
        memory = BankedTreeMemory(8, 4)
        with oracle_pe.tallying(memory) as tally:
            oracle_pe.store(tally, memory.banks[0], 1, NULL_POINTER, 0, 0)
            oracle_pe.store(tally, memory.banks[0], 1, NULL_POINTER, 0, 3)  # overwrite: still one
            for bank in memory.banks:
                oracle_pe.store(tally, bank, 2, NULL_POINTER, 0, 0)
            oracle_pe.clear_row(tally, memory, 3)  # clearing an empty row changes nothing
        assert memory.occupied_entries() == 9 == sum(sum(bank.valid) for bank in memory.banks)
        with oracle_pe.tallying(memory) as tally:
            oracle_pe.clear_row(tally, memory, 2)
        assert memory.occupied_entries() == 1 == sum(sum(bank.valid) for bank in memory.banks)
        assert memory.row_writes == 2
