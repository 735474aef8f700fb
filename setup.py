"""Package metadata and the ``repro-serve`` console entry point.

Install in editable mode for development::

    pip install -e .

Afterwards ``repro-serve`` drives a small multi-session demo of the
occupancy-mapping service layer (see :mod:`repro.serving.cli`).
"""

from setuptools import find_packages, setup

setup(
    name="omu-repro",
    version="1.3.0",
    description=(
        "Reproduction of 'OMU: A Probabilistic 3D Occupancy Mapping "
        "Accelerator for Real-time OctoMap at the Edge' (DATE 2022), grown "
        "into a multi-session occupancy-mapping service layer with "
        "pluggable shard execution backends (including socket-transport "
        "workers with live failover) and an asyncio admission front end"
    ),
    long_description=(
        "A from-scratch Python reproduction of the OMU occupancy-mapping "
        "accelerator (DATE 2022): the software OctoMap substrate, the "
        "cycle-approximate accelerator model, calibrated CPU baselines, "
        "energy/area models, the paper's tables and figures, and a "
        "multi-session mapping service layer (`repro.serving`) with sharded "
        "ingestion over pluggable execution backends (inline, thread pool, "
        "one process per shard, socket-transport workers with snapshots and "
        "live failover) and a cached query engine on top."
    ),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The native PE kernel's source: repro.core.native compiles it on first import.
    package_data={"repro.core": ["pe_kernel.c"]},
    python_requires=">=3.9",
    install_requires=[
        "numpy>=1.21",
    ],
    extras_require={
        # Everything CI's tier-1 + benchmark jobs need beyond install_requires.
        # pytest-asyncio is a convenience for asyncio-native test authoring;
        # the bundled async suite also runs without it (plain asyncio.run).
        "test": ["pytest", "hypothesis", "pytest-benchmark", "pytest-asyncio"],
        # CI's coverage job layers pytest-cov on top of the test extra.
        "cov": ["pytest-cov"],
        "lint": ["ruff"],
    },
    entry_points={
        "console_scripts": [
            "repro-serve=repro.serving.cli:main",
            "repro-serve-worker=repro.serving.remote.worker:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering",
        "Topic :: System :: Hardware",
    ],
)
