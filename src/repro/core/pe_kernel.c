/* The PE kernels: OMUAccelerator.apply_update_batch and its voxel reads over the PE array.
 *
 * One call of pe_apply_batch is the voxel scheduler and every PE of one
 * accelerator: it derives each key's root-to-leaf path and its PE (the
 * first-level branch modulo the PE count), then runs PE 0, 1, ... in turn,
 * each over its own updates in stream order, exactly as the pure-Python
 * kernel in tests/core/oracle_pe.py does one PE at a time: the path-register
 * resume, the leaf update of eq. (2), the O(1) upward pass with its prune
 * rule, and the one row read (read_children).  It touches the bank arrays
 * and the prune address manager's state in place through the addresses in
 * each pe_image, which repro/core/pe.py pins once per buffer, and no Python
 * object: ctypes releases the interpreter lock for the whole call.
 *
 * Everything the Python side books from a call (the updates routed to each
 * PE, events, per-bank writes, live-entry deltas, path nodes per bank, host
 * row reads) is added to that PE's block of TALLY_WORDS words.  A call stops
 * at the first update it cannot complete and returns why; the PEs before it
 * and that PE's updates before it are applied and tallied (T_DONE of them),
 * the PEs after it are untouched, and Python charges what was done before it
 * raises.  PE_GROW is not an error: that PE's image is too short for its next
 * update's fresh rows; Python grows it and calls again, and every PE resumes
 * after its T_DONE updates.
 *
 * pe_query_batch is the read mirror of pe_apply_batch (the Voxel Query unit,
 * Fig. 4/7): the same routing, then one query_walk per key over the same
 * images, which it only reads, tallying QUERY_TALLY_WORDS words per PE.
 * pe_query_key is the same walk for one key on one PE.  The Python loop they
 * replace is their oracle, tests/core/oracle_pe.py's query_paths.
 *
 * Built by repro/core/native.py; the layout of pe_image and the word indices
 * below are mirrored there and in repro/core/prune_manager.py.
 */

#include <stdint.h>

#define NULL_POINTER 0xFFFFFFFFu
#define ALL_OCCUPIED 0x5555u /* eight children tagged 01 */
#define ALL_FREE 0xAAAAu     /* eight children tagged 10 */
#define MAX_DEPTH 16

enum { PE_OK, PE_GROW, PE_CAPACITY, PE_MISMATCH, PE_CHILDLESS, PE_FREE_ROW };

/* PruneAddressManager's state words. */
enum { A_NEXT_FRESH, A_DEPTH, A_ALLOCATIONS, A_FRESH, A_REUSED, A_FREES, A_PEAK };

/* What a call adds up for the Python side, per PE. */
enum {
    T_ISSUED, /* set, not added: the updates of the batch routed to this PE */
    T_DONE,
    T_NEW_NODES,
    T_ALLOCATIONS,
    T_EXPANSIONS,
    T_PRUNES,
    T_ROW_READS,
    T_ROW_WRITES,
    T_ERROR_ROW,
    T_ERROR_BANK,
    T_WRITES,               /* eight words: write accesses per bank */
    T_OCCUPIED = T_WRITES + 8,   /* eight words: change in live entries per bank */
    T_PATH_NODES = T_OCCUPIED + 8, /* eight words: nodes of the done updates' paths per bank */
    TALLY_WORDS = T_PATH_NODES + 8,
};

/* What a read call adds up for the Python side, per PE. */
enum {
    Q_STARTED, /* keys walked, the one a corrupt image stopped included */
    Q_ABSENT,  /* keys under a first-level branch this PE never stored: one read each */
    Q_KNOWN,   /* keys answered free or occupied: one ALU pass each */
    Q_READS,   /* eight words: entry reads per bank */
    QUERY_TALLY_WORDS = Q_READS + 8,
};

typedef struct {
    /* The bank arrays' 32 addresses lead, in this order: Python pins them as one array. */
    uint8_t *valid[8];
    uint32_t *pointers[8];
    uint16_t *tags[8];
    int16_t *probabilities[8];
    int64_t capacity;      /* rows every bank array holds now */
    int64_t num_rows;      /* rows the allocator may hand out (the nominal size) */
    int64_t reserved_rows; /* rows at the bottom that are never freed */
    int32_t *stack;        /* prune stack, num_rows words */
    uint8_t *stacked;      /* per row: on the stack */
    int64_t *allocator;    /* A_* words */
    uint8_t *roots;        /* per first-level branch: local root in row 0 */
    int64_t depth;
    int64_t raw_hit, raw_miss, threshold, clamp_min, clamp_max;
} pe_image;

static void store(pe_image *im, int64_t *tally, int bank, int64_t row, uint32_t pointer, uint16_t tags,
                  int16_t value) {
    tally[T_WRITES + bank]++;
    tally[T_OCCUPIED + bank] += !im->valid[bank][row];
    im->valid[bank][row] = 1;
    im->pointers[bank][row] = pointer;
    im->tags[bank][row] = tags;
    im->probabilities[bank][row] = value;
}

static int allocate_row(pe_image *im, int64_t *row) {
    int64_t *state = im->allocator;
    if (state[A_DEPTH]) {
        *row = im->stack[--state[A_DEPTH]];
        im->stacked[*row] = 0;
        state[A_REUSED]++;
    } else {
        if (state[A_NEXT_FRESH] >= im->num_rows)
            return PE_CAPACITY;
        *row = state[A_NEXT_FRESH]++;
        state[A_FRESH]++;
    }
    state[A_ALLOCATIONS]++;
    return PE_OK;
}

/* PruneAddressManager.free_error's three checks, in its order. */
static int free_row(pe_image *im, int64_t row) {
    int64_t *state = im->allocator;
    if (row < im->reserved_rows || row >= im->num_rows || im->stacked[row] || row >= state[A_NEXT_FRESH])
        return PE_FREE_ROW;
    im->stack[state[A_DEPTH]++] = (int32_t)row;
    im->stacked[row] = 1;
    state[A_FREES]++;
    if (state[A_DEPTH] > state[A_PEAK])
        state[A_PEAK] = state[A_DEPTH];
    return PE_OK;
}

/* One banked row read: how many children the row holds, their least and greatest value. */
static int read_children(const pe_image *im, int64_t *tally, int64_t block, int *count, int64_t *low,
                         int64_t *high) {
    tally[T_ROW_READS]++;
    *count = 0;
    for (int bank = 0; bank < 8; bank++) {
        if (!im->valid[bank][block])
            continue;
        int64_t value = im->probabilities[bank][block];
        if (!*count || value < *low)
            *low = value;
        if (!*count || value > *high)
            *high = value;
        (*count)++;
    }
    return *count;
}

static int fail(int64_t *tally, int code, int64_t row, int bank) {
    tally[T_ERROR_ROW] = row;
    tally[T_ERROR_BANK] = bank;
    return code;
}

/* One PE's path register, a local of one call: the previous update's path, the row holding its
 * node at each level, and how many of those levels survived that update's prunes (none before the
 * PE's first update of the call, which walks from its local root). */
typedef struct {
    uint8_t path[MAX_DEPTH];
    int64_t rows[MAX_DEPTH];
    int intact;
} path_register;

/* One voxel update on one PE: one turn of the pure-Python kernel's loop. */
static int update_voxel(pe_image *im, path_register *reg, const uint8_t *path, int occupied, int64_t *tally) {
    const int depth = (int)im->depth;
    const int64_t threshold = im->threshold;
    int64_t *rows = reg->rows;
    int intact = reg->intact;

    if (im->allocator[A_NEXT_FRESH] + depth - 1 > im->capacity && im->capacity < im->num_rows)
        return PE_GROW;

    /* --- resume below the prefix the last update walked, or start at the local root --- */
    int resume = 0;
    while (resume < intact && path[resume] == reg->path[resume])
        resume++;
    int bank;
    int64_t row;
    if (resume) {
        bank = path[resume - 1];
        row = rows[resume - 1];
    } else {
        resume = 1;
        bank = path[0];
        row = 0;
        if (!im->roots[bank]) {
            store(im, tally, bank, 0, NULL_POINTER, 0, 0);
            im->roots[bank] = 1;
            tally[T_NEW_NODES]++;
        }
        rows[0] = 0;
    }

    /* --- walk down the key path, allocating / expanding --- */
    /* From level `grown` down, the path's nodes were leaves before this update gave them rows. */
    int grown = depth;
    for (int level = resume; level < depth; level++) {
        int child = path[level];
        int64_t block = im->pointers[bank][row];
        if (block == NULL_POINTER) {
            int code = allocate_row(im, &block);
            if (code)
                return fail(tally, code, 0, 0);
            tally[T_ALLOCATIONS]++;
            if (grown > level - 1)
                grown = level - 1;
            if (im->tags[bank][row]) {
                /* A pruned leaf covering a uniform region: its eight children come back with its value. */
                int16_t region = im->probabilities[bank][row];
                uint16_t uniform = region > threshold ? ALL_OCCUPIED : ALL_FREE;
                for (int sibling = 0; sibling < 8; sibling++)
                    store(im, tally, sibling, block, NULL_POINTER, uniform, region);
                tally[T_ROW_WRITES]++;
                tally[T_EXPANSIONS]++;
            } else {
                store(im, tally, child, block, NULL_POINTER, 0, 0);
                tally[T_NEW_NODES]++;
            }
            /* Persisted at once: a query between two updates must never see a half-written tree. */
            im->pointers[bank][row] = (uint32_t)block;
            tally[T_WRITES + bank]++;
        } else {
            if (block >= im->capacity) /* a pointer past every row ever handed out */
                return fail(tally, PE_MISMATCH, block, child);
            if (!((im->tags[bank][row] >> (2 * child)) & 3)) {
                store(im, tally, child, block, NULL_POINTER, 0, 0);
                tally[T_NEW_NODES]++;
            }
        }
        if (!im->valid[child][block]) /* the tag says the child exists, the bank holds nothing */
            return fail(tally, PE_MISMATCH, block, child);
        rows[level] = block;
        bank = child;
        row = block;
    }

    /* --- leaf update (paper eq. (2)): saturating add, clamped --- */
    int64_t stored = im->probabilities[bank][row];
    int64_t value = stored + (occupied ? im->raw_hit : im->raw_miss);
    value = value < im->clamp_min ? im->clamp_min : value > im->clamp_max ? im->clamp_max : value;
    im->probabilities[bank][row] = (int16_t)value;

    /* --- upward pass: parent update (eq. (3)) and pruning --- */
    /* Each parent follows from its stored entry and the one child that changed, child_old ->
     * child_new, now tagged `tag` (0 occupied, 1 free, 2 inner: its two bits are tag + 1). */
    intact = depth;
    int tag = value > threshold ? 0 : 1;
    for (int level = depth - 2; level >= 0; level--) {
        int shift = 2 * bank;
        int64_t child_old = stored, child_new = value;
        bank = path[level];
        row = rows[level];
        int64_t block = im->pointers[bank][row];
        uint32_t word = im->tags[bank][row];
        stored = im->probabilities[bank][row];
        uint32_t listed = word & (3u << shift);
        int children = -1;
        int64_t low = 0, high = 0;
        /* `value` stays the child's: the new maximum, or the first child of a node this update
         * created (no tags yet) -- unless the child is below the stored maximum. */
        if (child_new < stored && word) {
            if (child_old < stored || !listed) {
                value = stored; /* another child holds it and keeps it */
            } else {
                /* The child held it and fell: the row says who does now. */
                if (!read_children(im, tally, block, &children, &low, &high))
                    return fail(tally, PE_CHILDLESS, block, 0);
                value = high;
            }
        }
        word = (word ^ listed) | ((uint32_t)(tag + 1) << shift);
        im->tags[bank][row] = (uint16_t)word;
        if (child_new == value && (word == ALL_OCCUPIED || word == ALL_FREE)) {
            /* Eight leaves of one class, the changed one at the maximum: are all eight equal? */
            if (children < 0 && !read_children(im, tally, block, &children, &low, &high))
                return fail(tally, PE_CHILDLESS, block, 0);
            if (children == 8 && low == value) {
                for (int sibling = 0; sibling < 8; sibling++) {
                    tally[T_WRITES + sibling]++;
                    tally[T_OCCUPIED + sibling] -= im->valid[sibling][block];
                    im->valid[sibling][block] = 0;
                }
                tally[T_ROW_WRITES]++;
                if (free_row(im, block))
                    return fail(tally, PE_FREE_ROW, block, 0);
                im->pointers[bank][row] = NULL_POINTER;
                tally[T_PRUNES]++;
                intact = level + 1;
                im->probabilities[bank][row] = (int16_t)value;
                tag = value > threshold ? 0 : 1;
                continue;
            }
        }
        if (level < grown && value == stored)
            /* An inner node that keeps its value: its parent's row reads as it did, so no
             * ancestor changes and none can prune over an inner child. */
            break;
        im->probabilities[bank][row] = (int16_t)value;
        tag = 2;
    }
    for (int level = 0; level < depth; level++) {
        tally[T_PATH_NODES + path[level]]++;
        reg->path[level] = path[level];
    }
    reg->intact = intact;
    tally[T_DONE]++;
    return PE_OK;
}

/* Child index of a key at tree level `bit` counted from the leaves: one bit of each component. */
static int child_at(const uint16_t *key, int bit) {
    return ((key[0] >> bit) & 1) | ((key[1] >> bit) & 1) << 1 | ((key[2] >> bit) & 1) << 2;
}

/* The batch entry: num_pes images, count keys (three uint16 components each) and flags, room for
 * count stream positions, and num_pes blocks of TALLY_WORDS words.  The voxel scheduler splits the
 * stream by first-level branch into `order`, stably, so each PE's updates sit there in stream
 * order, and counts them into T_ISSUED.  A call that finds counts there resumes an earlier call
 * over the same stream, whose split it keeps: each PE goes on after the T_DONE updates it did. */
int pe_apply_batch(pe_image *const *images, int64_t num_pes, const uint16_t *keys, const uint8_t *occupied,
                   int64_t count, int64_t *order, int64_t *tallies) {
    const int depth = (int)images[0]->depth;
    int64_t owner[8], start[8]; /* the PE of each first-level branch; where each PE's updates start */
    int64_t issued = 0;
    for (int64_t pe = 0; pe < num_pes; pe++)
        issued += tallies[pe * TALLY_WORDS + T_ISSUED];
    if (!issued) {
        for (int branch = 0; branch < 8; branch++)
            owner[branch] = branch % num_pes;
        for (int64_t index = 0; index < count; index++)
            tallies[owner[child_at(keys + 3 * index, depth - 1)] * TALLY_WORDS + T_ISSUED]++;
        for (int64_t pe = 0, at = 0; pe < num_pes; pe++) {
            start[pe] = at;
            at += tallies[pe * TALLY_WORDS + T_ISSUED];
        }
        for (int64_t index = 0; index < count; index++)
            order[start[owner[child_at(keys + 3 * index, depth - 1)]]++] = index;
    }

    for (int64_t pe = 0, end = 0; pe < num_pes; pe++) {
        int64_t *tally = tallies + pe * TALLY_WORDS;
        end += tally[T_ISSUED];
        path_register reg;
        reg.intact = 0;
        for (int64_t at = end - tally[T_ISSUED] + tally[T_DONE]; at < end; at++) {
            const uint16_t *key = keys + 3 * order[at];
            uint8_t path[MAX_DEPTH];
            for (int level = 0; level < depth; level++)
                path[level] = (uint8_t)child_at(key, depth - 1 - level);
            int code = update_voxel(images[pe], &reg, path, occupied[order[at]], tally);
            if (code)
                return code;
        }
    }
    return PE_OK;
}

/* One voxel look-up: read one entry per level until a leaf (a pruned region answers for every voxel
 * inside it) or a child the tags call unknown.  Returns the answer's index into QUERY_STATUSES (0
 * unknown, 1 free, 2 occupied) with its fixed-point log-odds in *raw (0 where unknown), or -1 where a
 * tag lists a child the image does not hold: not valid, or at a pointer past every row it has. */
static int query_walk(const pe_image *im, const uint16_t *key, int16_t *raw, int64_t *tally) {
    const int depth = (int)im->depth;
    int bank = child_at(key, depth - 1);
    int64_t row = 0;
    tally[Q_STARTED]++;
    *raw = 0;
    if (!im->roots[bank]) {
        tally[Q_ABSENT]++;
        return 0;
    }
    tally[Q_READS + bank]++;
    for (int bit = depth - 2; bit >= 0; bit--) {
        int child = child_at(key, bit);
        uint32_t block = im->pointers[bank][row];
        uint32_t word = im->tags[bank][row];
        if (block == NULL_POINTER) {
            if (!word) /* an unobserved fresh node */
                return 0;
            break; /* a leaf above the finest depth: a pruned, homogeneous region */
        }
        if (!((word >> (2 * child)) & 3))
            return 0;
        tally[Q_READS + child]++;
        if (block >= im->capacity || !im->valid[child][block])
            return -1;
        bank = child;
        row = block;
    }
    int16_t value = im->probabilities[bank][row];
    tally[Q_KNOWN]++;
    *raw = value;
    return value > im->threshold ? 2 : 1;
}

/* The read entry: num_pes images, count keys (three uint16 components each), room for count codes
 * and raws, and num_pes blocks of QUERY_TALLY_WORDS words.  Without stop_at_occupied it runs PE 0,
 * 1, ... in turn, each over its own keys in stream order, and answers every key in place; with it,
 * it walks the keys in stream order (a collision ray's run) and stops after the first occupied one,
 * leaving the answered prefix.  *answered counts the keys answered.  Returns -1, or the PE whose
 * image stopped the call: its keys before the stopping one, and the keys of the PEs walked before
 * it, are answered and tallied, the stopping key is tallied as far as it was read, and no other. */
int pe_query_batch(pe_image *const *images, int64_t num_pes, const uint16_t *keys, int64_t count,
                   int stop_at_occupied, uint8_t *codes, int16_t *raws, int64_t *answered, int64_t *tallies) {
    const int depth = (int)images[0]->depth;
    *answered = 0;
    if (stop_at_occupied) {
        for (int64_t index = 0; index < count; index++) {
            const uint16_t *key = keys + 3 * index;
            int64_t pe = child_at(key, depth - 1) % num_pes;
            int code = query_walk(images[pe], key, raws + index, tallies + pe * QUERY_TALLY_WORDS);
            if (code < 0)
                return (int)pe;
            codes[index] = (uint8_t)code;
            (*answered)++;
            if (code == 2)
                break;
        }
        return -1;
    }
    for (int64_t pe = 0; pe < num_pes; pe++) {
        for (int64_t index = 0; index < count; index++) {
            const uint16_t *key = keys + 3 * index;
            if (child_at(key, depth - 1) % num_pes != pe)
                continue;
            int code = query_walk(images[pe], key, raws + index, tallies + pe * QUERY_TALLY_WORDS);
            if (code < 0)
                return (int)pe;
            codes[index] = (uint8_t)code;
            (*answered)++;
        }
    }
    return -1;
}

/* One key on its PE's image, passed as scalars: query_walk's answer, its raw in *raw, its tally. */
int pe_query_key(const pe_image *im, int64_t x, int64_t y, int64_t z, int16_t *raw, int64_t *tally) {
    const uint16_t key[3] = {(uint16_t)x, (uint16_t)y, (uint16_t)z};
    return query_walk(im, key, raw, tally);
}
