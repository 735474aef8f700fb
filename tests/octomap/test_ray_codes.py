"""The collision ray's native walk: ``compute_ray_codes`` against the scalar DDA.

The query engine walks a ray with one ``dda_cast_ray`` call.  Its contract:
for any origin and end, the returned end is the end
:func:`~repro.octomap.scan_insertion.clip_segment_to_volume` clips to (the
given one where it lies inside the volume), and the codes are
:func:`~repro.octomap.raycast.compute_ray_keys` over that segment with the
end's key appended, key for key and in order -- or both raise the same
``ValueError``.  An origin outside the volume inspects nothing.  The
hypothesis property draws clipped ends, origins a hair inside a face with
components of order 1e-13 towards it, origins in the outer margin between
the clip limit (0.999 of the face) and the face, axis-aligned and diagonal rays from
the half-voxel lattice (crossings that tie between axes), rays that stay in
their origin's voxel, and rays along the faces where a key component is 0
or 65535.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.octomap.keys import KeyConverter
from repro.octomap.raycast import compute_ray_keys
from repro.octomap.raycast_vec import compute_ray_codes, pack_key_array
from repro.octomap.scan_insertion import clip_segment_to_volume

#: (resolution, depth): small volumes so that rays leave them, and the
#: service's default 16-level tree, whose key components reach 0 and 65535.
VOLUMES = [(0.2, 5), (0.1, 6), (0.2, 16)]


def scalar_ray(converter: KeyConverter, origin, end) -> Tuple[List[int], Optional[Tuple[float, ...]]]:
    """The scalar walk the engine made before the native one: codes and the end used."""
    if not converter.is_coordinate_in_range(*origin):
        return [], None
    if not converter.is_coordinate_in_range(*end):
        end = clip_segment_to_volume(converter, origin, end)
    keys = compute_ray_keys(converter, origin, end)
    end_key = converter.coord_to_key(*end)
    if not keys or keys[-1] != end_key:
        keys.append(end_key)
    codes = pack_key_array(np.array([key.as_tuple() for key in keys], dtype=np.uint16)).tolist()
    return codes, tuple(end)


def outcome(call, *args):
    """``("answer", what the call returns)``, or ``("ValueError", its message)``."""
    try:
        return ("answer", call(*args))
    except ValueError as error:
        return ("ValueError", str(error))


def assert_walks_agree(converter: KeyConverter, origin, end) -> List[int]:
    expected = outcome(scalar_ray, converter, origin, end)
    answered = outcome(compute_ray_codes, converter, origin, end)
    if "ValueError" in (expected[0], answered[0]):
        assert answered == expected
        return []
    codes, native_end = answered[1]
    expected_codes, expected_end = expected[1]
    assert codes.dtype == np.uint64
    assert codes.tolist() == expected_codes
    if expected_end is not None:
        assert native_end == expected_end  # bit for bit
    return expected_codes


@st.composite
def rays(draw):
    resolution, depth = draw(st.sampled_from(VOLUMES))
    converter = KeyConverter(resolution, depth)
    face = converter.max_coordinate
    # Rays in the 16-level volume stay short: the scalar oracle walks them in Python.
    reach = min(3.0 * face, 40.0)
    # The clip limit is 0.999 of the face; origins between the two (the outer margin) included.
    limit = face * 0.999
    near_face = st.sampled_from(
        [face - 1e-14, -face, 1e-14 - face, math.nextafter(face, 0.0), face - resolution / 2, face, -face - 0.3]
        + [limit, -limit, math.nextafter(limit, 0.0), face * 0.9995, -face * 0.9995]
    )
    # Origins on the half-voxel lattice with lattice directions make the
    # walk's boundary crossings tie between axes.
    on_lattice = st.integers(-12, 12).map(lambda k: k * resolution / 2)
    centre = draw(st.tuples(*(st.one_of(st.floats(-reach / 3, reach / 3), on_lattice) for _ in range(3))))
    origin = list(centre)
    for axis in draw(st.sets(st.integers(0, 2), max_size=2)):
        origin[axis] = draw(near_face)
    component = st.one_of(
        st.floats(-1.0, 1.0),
        st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.5]),
        st.sampled_from([1e-13, -1e-13, 3e-14, -1e-12, 1e-12, 1e-9, -1e-6]),
    )
    direction = draw(st.tuples(component, component, component))
    length = draw(st.one_of(st.floats(0.0, reach), st.floats(0.0, resolution / 2)))
    end = tuple(o + d * length for o, d in zip(origin, direction))
    return converter, tuple(origin), end


@given(rays())
@settings(max_examples=400, deadline=None)
@example((KeyConverter(0.2, 5), (3.2 - 1e-14, 0.1, 0.2), (3.2 + 3.9e-13, 4.1, 0.2)))
@example((KeyConverter(0.2, 16), (0.0, 0.0, math.nextafter(6553.6, 0.0)), (5.0, 0.0, 6553.6)))
def test_the_native_walk_is_the_scalar_walk_plus_the_end_key(ray):
    assert_walks_agree(*ray)


@pytest.mark.parametrize(
    "origin, end, axis, component",
    [
        # Along the -x face of the 16-level volume: every key has x = 0.
        ((-6553.6, 0.05, 0.05), (-6553.6, 3.0, 2.0), 0, 0),
        # Along its +x face: every key has x = 65535.
        ((math.nextafter(6553.6, 0.0), 0.05, 0.05), (math.nextafter(6553.6, 0.0), -3.0, 2.0), 0, 65535),
        # A hair inside the +z face, a 1e-13 component towards it.
        ((0.0, 0.0, math.nextafter(6553.6, 0.0)), (5.0, 0.0, 6553.6), 2, 65535),
    ],
)
def test_rays_along_a_face_keep_its_extreme_key_component(origin, end, axis, component):
    converter = KeyConverter(0.2, 16)
    codes = assert_walks_agree(converter, origin, end)
    assert len(codes) > 10
    keys = (np.array(codes, dtype=np.uint64)[:, None] >> np.array([32, 16, 0], dtype=np.uint64)) & np.uint64(0xFFFF)
    assert set(keys[:, axis].tolist()) == {component}


@pytest.mark.parametrize(
    "origin, direction",
    [
        ((3.2 - 1e-14, 0.1, 0.2), (1e-13, 1.0, 0.0)),
        ((1e-14 - 3.2, 0.1, 0.2), (-1e-13, 1.0, 0.0)),
        ((0.1, 3.2 - 1e-14, -1.0), (0.3, 3e-14, 1.0)),
    ],
)
def test_a_ray_from_a_hair_inside_a_face_ends_inside_the_volume(origin, direction):
    """The defect the clip had: such a ray was clipped to an end just outside
    the volume, and both walks raised for a valid ray."""
    converter = KeyConverter(0.2, 5)
    end = tuple(o + d * 6.0 for o, d in zip(origin, direction))
    assert not converter.is_coordinate_in_range(*end)
    clipped = clip_segment_to_volume(converter, origin, end)
    assert converter.is_coordinate_in_range(*clipped)
    codes, native_end = compute_ray_codes(converter, origin, end)
    assert native_end == clipped and len(codes) > 1
    assert codes.tolist() == scalar_ray(converter, origin, end)[0]


@pytest.mark.parametrize(
    "origin, direction, axis",
    [
        # A hair inside the +x face of a +-6.4 m volume, 1e-13 towards it over 14 m: 1.4e-12 m.
        ((6.4 - 1e-14, -0.3, 0.2), (1e-13, 0.6, 0.8), 0),
        ((6.4 * 0.9995, 0.1, 0.2), (0.05, 1.0, 0.0), 0),
        ((0.1, -6.4 * 0.999, 0.2), (1.0, -1e-12, 0.0), 1),
        ((0.1, 0.2, -6.4 * 0.9999), (0.0, 1.0, -0.5), 2),
    ],
)
def test_a_ray_from_the_outer_margin_of_a_face_travels_along_it(origin, direction, axis):
    """The defect the clip had: an origin between the clip limit and a face, with a component of
    1e-12 or more towards the face, clipped to scale 0 and the ray inspected its origin voxel alone.
    That axis keeps the origin's coordinate; the others clip as usual."""
    converter = KeyConverter(0.2, 6)
    end = tuple(o + d * 14.0 for o, d in zip(origin, direction))
    clipped = clip_segment_to_volume(converter, origin, end)
    assert clipped[axis] == origin[axis] and converter.is_coordinate_in_range(*clipped)
    assert math.dist(origin, clipped) > 1.0
    codes = assert_walks_agree(converter, origin, end)
    assert len(codes) > 5


def test_an_origin_outside_the_volume_inspects_nothing():
    converter = KeyConverter(0.2, 5)
    codes, end = compute_ray_codes(converter, (4.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert codes.dtype == np.uint64 and codes.size == 0
    assert end == (0.0, 0.0, 0.0)


def test_origin_and_end_in_one_voxel_is_that_voxel_alone():
    converter = KeyConverter(0.2, 5)
    codes, _end = compute_ray_codes(converter, (0.01, 0.01, 0.01), (0.15, 0.02, 0.19))
    key = converter.coord_to_key(0.01, 0.01, 0.01)
    assert codes.tolist() == [key.x << 32 | key.y << 16 | key.z]


@pytest.mark.parametrize("end", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0, -math.inf)])
def test_an_end_with_no_key_raises_the_scalar_walks_error(end):
    converter = KeyConverter(0.2, 5)
    expected = outcome(scalar_ray, converter, (0.0, 0.0, 0.0), end)
    assert expected[0] == "ValueError"  # the message names the coordinate
    assert outcome(compute_ray_codes, converter, (0.0, 0.0, 0.0), end) == expected
