import run  # noqa: F401  pins the BLAS threads before numpy loads
import workloads

workloads.import_hidra()
