import importlib
import pkgutil

import secular3bp
from secular3bp import kernels


def test_public_names_resolve():
    modules = [secular3bp] + [
        importlib.import_module(f"secular3bp.{info.name}")
        for info in pkgutil.iter_modules(secular3bp.__path__)
        if info.name != "__main__"
    ]
    missing = [f"{module.__name__}.{name}"
               for module in modules
               for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []
    # The sweep metadata and the benchmark harness read these two.
    assert kernels.BACKEND == "numpy"
    assert kernels.quarter_sums_numpy is kernels.quarter_sums
