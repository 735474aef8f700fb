/* The ingestion front end: ray-cast a flush's scans into per-scan update keys.
 *
 * One call takes every beam of every scan in a flush and returns, per scan,
 * the sorted unique free-space keys (occupied keys removed: occupied beats
 * free) followed by the sorted unique occupied keys, each key packed as
 * x << 32 | y << 16 | z.  Per beam it does what the scalar reference does
 * (repro/octomap/scan_insertion.py around repro/octomap/raycast.py's
 * compute_ray_keys): max-range truncation, clipping at the addressable
 * volume, discretisation, and the Amanatides-Woo walk with its step bound.
 * The arithmetic is the same operation for operation, so the emitted keys
 * are the scalar DDA's, bit for bit; the property suites hold the two equal.
 *
 * The call touches no Python object, so ctypes releases the interpreter lock
 * for all of it.  Its key list is allocated here and handed back: the caller
 * copies it out and passes it to dda_release.  A scan the scalar path would
 * raise on stops the call with a code and the scan (and beam) that caused it.
 *
 * Built by repro/core/native.py and called from repro/octomap/raycast_vec.py,
 * which mirrors the return codes.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define EPSILON 1e-12 /* the scalar DDA's and the volume clipper's */

enum { DDA_OK, DDA_ORIGIN, DDA_ENDPOINT, DDA_MEMORY };

/* Words of the per-scan counts row. */
enum { C_FREE, C_OCCUPIED, C_STEPS, COUNT_WORDS };

typedef struct {
    uint64_t *keys;
    int64_t size, capacity;
} key_list;

/* Room for `more` keys past list->size; the first call allocates even for none. */
static int reserve(key_list *list, int64_t more) {
    if (list->keys && list->size + more <= list->capacity)
        return DDA_OK;
    int64_t capacity = list->capacity ? list->capacity : 1024;
    while (capacity < list->size + more)
        capacity *= 2;
    uint64_t *keys = realloc(list->keys, (size_t)capacity * sizeof *keys);
    if (!keys)
        return DDA_MEMORY;
    list->keys = keys;
    list->capacity = capacity;
    return DDA_OK;
}

static uint64_t pack(const int64_t key[3]) {
    return (uint64_t)key[0] << 32 | (uint64_t)key[1] << 16 | (uint64_t)key[2];
}

/* KeyConverter.is_coordinate_in_range. */
static int inside(const double point[3], double limit) {
    for (int axis = 0; axis < 3; axis++)
        if (!(point[axis] >= -limit && point[axis] < limit))
            return 0;
    return 1;
}

/* KeyConverter.coord_to_key: 0 where a component has no key (NaN included). */
static int to_key(const double point[3], double resolution, int64_t tree_max_val, int64_t key[3]) {
    for (int axis = 0; axis < 3; axis++) {
        double cell = floor(point[axis] / resolution);
        if (!(cell >= (double)-tree_max_val && cell < (double)tree_max_val))
            return 0;
        key[axis] = (int64_t)cell + tree_max_val;
    }
    return 1;
}

/* clip_segment_to_volume for an origin inside the volume. */
static void clip(const double origin[3], double end[3], double limit) {
    limit *= 0.999;
    double scale = 1.0;
    for (int axis = 0; axis < 3; axis++) {
        double delta = end[axis] - origin[axis];
        if (fabs(delta) < EPSILON)
            continue;
        double candidate;
        if (end[axis] > limit)
            candidate = (limit - origin[axis]) / delta;
        else if (end[axis] < -limit)
            candidate = (-limit - origin[axis]) / delta;
        else
            continue;
        if (candidate < scale)
            scale = candidate;
    }
    if (scale < 0.0)
        scale = 0.0;
    for (int axis = 0; axis < 3; axis++)
        end[axis] = origin[axis] + (end[axis] - origin[axis]) * scale;
}

/* compute_ray_keys: append the keys strictly between the two voxels to `visits`. */
static int walk(const double origin[3], const double end[3], const int64_t origin_key[3], const int64_t end_key[3],
                double resolution, int64_t tree_max_val, key_list *visits) {
    if (origin_key[0] == end_key[0] && origin_key[1] == end_key[1] && origin_key[2] == end_key[2])
        return DDA_OK;
    double direction[3];
    for (int axis = 0; axis < 3; axis++)
        direction[axis] = end[axis] - origin[axis];
    double length = sqrt(direction[0] * direction[0] + direction[1] * direction[1] + direction[2] * direction[2]);
    if (length < EPSILON)
        return DDA_OK;

    int64_t current[3], step[3];
    double t_max[3], t_delta[3];
    for (int axis = 0; axis < 3; axis++) {
        double unit = direction[axis] / length;
        double center = ((double)(origin_key[axis] - tree_max_val) + 0.5) * resolution;
        current[axis] = origin_key[axis];
        step[axis] = unit > EPSILON ? 1 : unit < -EPSILON ? -1 : 0;
        t_max[axis] = t_delta[axis] = INFINITY;
        if (step[axis]) {
            t_max[axis] = (center + (double)step[axis] * (0.5 * resolution) - origin[axis]) / unit;
            t_delta[axis] = resolution / fabs(unit);
        }
    }

    int64_t max_steps = (int64_t)(3.0 * (length / resolution + 2.0)) + 8;
    if (reserve(visits, max_steps))
        return DDA_MEMORY;
    uint64_t *out = visits->keys + visits->size;
    for (int64_t i = 0; i < max_steps; i++) {
        int axis = 0; /* the first minimum, as list.index(min(...)) picks it */
        if (t_max[1] < t_max[axis])
            axis = 1;
        if (t_max[2] < t_max[axis])
            axis = 2;
        if (t_max[axis] > length)
            break; /* the next boundary lies past the endpoint: every free voxel is out */
        current[axis] += step[axis];
        t_max[axis] += t_delta[axis];
        if (current[axis] < 0 || current[axis] > 0xFFFF)
            break;
        if (current[0] == end_key[0] && current[1] == end_key[1] && current[2] == end_key[2])
            break;
        *out++ = pack(current);
    }
    visits->size = out - visits->keys;
    return DDA_OK;
}

/* Ascending sort of packed keys (48 bits): least significant byte first, a
 * pass skipped when every key has the same byte there.  One sweep counts all
 * six bytes.  spare holds n words. */
static void sort_keys(uint64_t *keys, uint64_t *spare, int64_t n) {
    int64_t counts[6][256] = {{0}};
    for (int64_t i = 0; i < n; i++)
        for (int digit = 0; digit < 6; digit++)
            counts[digit][(keys[i] >> 8 * digit) & 0xFF]++;
    uint64_t *from = keys, *to = spare;
    for (int digit = 0; digit < 6; digit++) {
        const int shift = 8 * digit;
        int64_t *start = counts[digit];
        if (start[(from[0] >> shift) & 0xFF] == n)
            continue;
        int64_t total = 0;
        for (int digit = 0; digit < 256; digit++) {
            int64_t count = start[digit];
            start[digit] = total;
            total += count;
        }
        for (int64_t i = 0; i < n; i++)
            to[start[(from[i] >> shift) & 0xFF]++] = from[i];
        uint64_t *swap = from;
        from = to;
        to = swap;
    }
    if (from != keys)
        memcpy(keys, from, (size_t)n * sizeof *keys);
}

/* Sorts keys[0..n) and drops repeats; returns how many are left.  Each
 * component is sorted as its offset from the scan's least value, which orders
 * as the keys do.  Where a scan spans fewer than 256 voxels on an axis, that
 * component's high byte is then zero for every key and its pass is skipped:
 * the benchmark's corridor scans (15 m at 0.2 m) span at most 123 / 40 / 14
 * voxels, so at most three passes run instead of six.  Wider scans only cost
 * passes. */
static int64_t sort_unique(uint64_t *keys, uint64_t *spare, int64_t n) {
    if (!n)
        return 0;
    uint64_t low_x = 0xFFFF, low_y = 0xFFFF, low_z = 0xFFFF;
    for (int64_t i = 0; i < n; i++) {
        uint64_t x = keys[i] >> 32, y = (keys[i] >> 16) & 0xFFFF, z = keys[i] & 0xFFFF;
        low_x = x < low_x ? x : low_x;
        low_y = y < low_y ? y : low_y;
        low_z = z < low_z ? z : low_z;
    }
    const uint64_t base = low_x << 32 | low_y << 16 | low_z;
    for (int64_t i = 0; i < n; i++)
        keys[i] -= base; /* no borrow: every component is at least its least value */
    sort_keys(keys, spare, n);
    int64_t kept = 1;
    for (int64_t i = 1; i < n; i++)
        if (keys[i] != keys[kept - 1])
            keys[kept++] = keys[i];
    for (int64_t i = 0; i < kept; i++)
        keys[i] += base;
    return kept;
}

/* One scan's beams: rays [first, last) of points, the scan's origin and range. */
static int cast_scan(const double *points, int64_t first, int64_t last, const double origin[3], double max_range,
                     double resolution, int64_t tree_max_val, key_list *visits, key_list *occupied,
                     int64_t *error_ray) {
    const double limit = (double)tree_max_val * resolution;
    const int origin_inside = inside(origin, limit);
    int64_t origin_key[3];
    const int origin_keyed = to_key(origin, resolution, tree_max_val, origin_key);
    for (int64_t ray = first; ray < last; ray++) {
        const double *point = points + 3 * ray;
        double end[3] = {point[0], point[1], point[2]};
        int truncated = 0;
        if (max_range > 0.0) {
            double delta[3];
            for (int axis = 0; axis < 3; axis++)
                delta[axis] = point[axis] - origin[axis];
            double distance = sqrt(delta[0] * delta[0] + delta[1] * delta[1] + delta[2] * delta[2]);
            if (distance > max_range) {
                double scale = max_range / distance;
                for (int axis = 0; axis < 3; axis++)
                    end[axis] = origin[axis] + (point[axis] - origin[axis]) * scale;
                truncated = 1;
            }
        }
        if (!inside(end, limit)) {
            if (!origin_inside)
                continue; /* clip_segment_to_volume gives up: the beam contributes nothing */
            clip(origin, end, limit);
            truncated = 1;
        }
        *error_ray = ray;
        if (!origin_keyed)
            return DDA_ORIGIN;
        int64_t end_key[3];
        if (!to_key(end, resolution, tree_max_val, end_key))
            return DDA_ENDPOINT;
        if (!truncated) {
            if (reserve(occupied, 1))
                return DDA_MEMORY;
            occupied->keys[occupied->size++] = pack(end_key);
        }
        if (walk(origin, end, origin_key, end_key, resolution, tree_max_val, visits))
            return DDA_MEMORY;
    }
    return DDA_OK;
}

/* The flush's front end.  Scan s owns beams offsets[s] .. offsets[s+1]-1 of
 * points (scans + 1 offsets), origins[3s..3s+2] and max_ranges[s] (<= 0: no
 * truncation).  On DDA_OK, *keys holds scan after scan its free keys then its
 * occupied keys, counts[COUNT_WORDS * s + C_*] their numbers and the scan's
 * DDA steps (free visits before de-duplication); release *keys with
 * dda_release.  Otherwise error[0], error[1] name the scan and the beam. */
int dda_cast_scans(const double *points, const int64_t *offsets, const double *origins, const double *max_ranges,
                   int64_t scans, double resolution, int64_t tree_max_val, int64_t *counts, uint64_t **keys,
                   int64_t *error) {
    key_list out = {0}, visits = {0}, occupied = {0}, spare = {0};
    int code = DDA_OK;
    for (int64_t scan = 0; scan < scans; scan++) {
        visits.size = occupied.size = 0;
        code = cast_scan(points, offsets[scan], offsets[scan + 1], origins + 3 * scan, max_ranges[scan], resolution,
                         tree_max_val, &visits, &occupied, &error[1]);
        if (code) {
            error[0] = scan;
            break;
        }
        int64_t largest = visits.size > occupied.size ? visits.size : occupied.size;
        if (reserve(&spare, largest) || reserve(&out, visits.size + occupied.size)) {
            code = DDA_MEMORY;
            break;
        }
        int64_t *row = counts + COUNT_WORDS * scan;
        row[C_STEPS] = visits.size;
        int64_t n_free = sort_unique(visits.keys, spare.keys, visits.size);
        int64_t n_occupied = sort_unique(occupied.keys, spare.keys, occupied.size);
        /* Occupied beats free within the scan: both lists are sorted, one merge pass. */
        uint64_t *kept = out.keys + out.size;
        for (int64_t i = 0, j = 0; i < n_free; i++) {
            while (j < n_occupied && occupied.keys[j] < visits.keys[i])
                j++;
            if (j == n_occupied || occupied.keys[j] != visits.keys[i])
                *kept++ = visits.keys[i];
        }
        row[C_FREE] = kept - (out.keys + out.size);
        row[C_OCCUPIED] = n_occupied;
        if (n_occupied)
            memcpy(kept, occupied.keys, (size_t)n_occupied * sizeof *kept);
        out.size += row[C_FREE] + n_occupied;
    }
    free(visits.keys);
    free(occupied.keys);
    free(spare.keys);
    if (code) {
        free(out.keys);
        out.keys = NULL;
    }
    *keys = out.keys;
    return code;
}

void dda_release(uint64_t *keys) { free(keys); }
