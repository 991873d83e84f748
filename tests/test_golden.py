"""Golden-output tripwire: `xkmeans run` must write the same bytes.

Each case, run at seed 0 unless it names a seed, pins the sha256 of every
tree JSON, tree DOT and trace file it writes, and of results.csv with its
last column (wall_time_ms, the only timing) removed. A change that means to keep outputs byte-identical must
leave these digests alone. A change that means to move bits regenerates
them with `PYTHONPATH=src python tests/test_golden.py` and says so in its
record.
"""

import builtins
import csv
import hashlib
import io
import json
import sys
from importlib.resources import files

import pytest

from xkmeans.cli import main

IRIS = str(files("xkmeans").joinpath("data/iris.csv"))

CASES = {
    "iris": ["--data", IRIS, "--k", "3", "--leaves", "k,2k"],
    # k' = n: Iris has 149 distinct points, so exkmc, exkmc_imm and kdtree
    # stop at 149 leaves on zero-gain ties and gini_tree at 5
    "iris_deep": ["--data", IRIS, "--k", "3", "--leaves", "k,40,150"],
    "blobs_1d": ["--synth", "blobs", "--k", "3", "--d", "1", "--n", "300", "--leaves", "k,2k,4k"],
    "blobs_2d": ["--synth", "blobs", "--k", "4", "--d", "2", "--n", "300", "--leaves", "k,2k,4k"],
    # 390 rows by 130 features: the root scan runs two blocks of 84 features;
    # its 4 build groups share 2 jobs. gini grows to 5 leaves, the others to 12
    "synthetic2_wide": [
        "--synth", "synthetic2", "--k", "3", "--d", "130", "--leaves", "k,4k", "--jobs", "2",
    ],
}

# The benchmark's three workloads (benchmarks/workloads.py), generated in
# memory: at seed 0 these runs write the same bytes as the benchmark's runs
# on its CSV files. Each runs at seeds 0 and 7; blobs_deep also at 3 jobs,
# which share its 4 build groups unevenly.
WORKLOADS = {
    "outlier_wide": [
        "--synth", "synthetic1", "--k", "3", "--leaves", "k,4k",
        "--methods", "exkmc_imm,imm,kdtree,gini_tree", "--jobs", "2",
    ],
    "blobs_tall": [
        "--synth", "blobs", "--k", "4", "--n", "8000", "--d", "10", "--separation", "1.5",
        "--leaves", "k,2k,4k",
    ],
    "blobs_deep": [
        "--synth", "blobs", "--k", "4", "--n", "1500", "--d", "2", "--separation", "3.0",
        "--leaves", "4,500,1500",
    ],
}
for _name, _args in WORKLOADS.items():
    for _seed in ("0", "7"):
        CASES[f"{_name}_seed{_seed}"] = [*_args, "--seed", _seed]
CASES["blobs_deep_seed0_jobs3"] = [*WORKLOADS["blobs_deep"], "--seed", "0", "--jobs", "3"]

# case -> output file -> sha256
GOLDEN = {
    "blobs_1d": {
        "results.csv": "eb13430a87e6a4977f45a0f02fa254e7d92864cc6464056e7fbc635b64fb017f",
        "trace_exkmc_imm_k12.jsonl": "2526ae08d1e666fbb7d18003ac2f1510ab6a382d1075aa1eb0bf0a367d28f765",
        "trace_exkmc_imm_k3.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "trace_exkmc_imm_k6.jsonl": "2d42812061dbfbe3ed8539ea462024fcd0f5663d73e2e9b1231dbc78607eb7a5",
        "trace_exkmc_k12.jsonl": "607548913475b8cff2ad75f6e75ab13bfcea9689c0db638d167fc870fbd5e494",
        "trace_exkmc_k3.jsonl": "bc954abd64ad71d89a1ead09e312de6424badb3014723bf956bca377515d9c3f",
        "trace_exkmc_k6.jsonl": "8a8e15299baebf194028c5b972393e44d8fd814e4d56e3073dc01d3782d30a9d",
        "tree_exkmc_imm_k12.dot": "05d763cb7dcecdf08ccb6033f01434da93108b8cefe7bd31acb9db0e07be0332",
        "tree_exkmc_imm_k12.json": "59f880afcf37915c51acbafd5756760f3b2a00e44844943f26824dccf4db4e82",
        "tree_exkmc_imm_k3.dot": "42f67c986b89c763f90a5c1fa3bb2283852b41e22ea2f09fe51f7f45fc809792",
        "tree_exkmc_imm_k3.json": "42476a16bd3e4bf88049fc375392837509a0123e0bf0a3c9ced42ee62d4ef5bf",
        "tree_exkmc_imm_k6.dot": "45e292ef76f6a13791fa951cdee3d7af249640795478e97f4360f424b87bc880",
        "tree_exkmc_imm_k6.json": "c43d68032c30cd392586856153a0cc944ff43d0017a3a33f36dc54598ad8e5b9",
        "tree_exkmc_k12.dot": "9c6bd65f692722411b600a6da548bc77e87945f802a4db3c06ad175a6db9a9a6",
        "tree_exkmc_k12.json": "6dd07551497b42ed5a11405c282ae166e6b753d26f031bb6960e1448e3607633",
        "tree_exkmc_k3.dot": "4d23d21976d8609cc6af2ca33cb9d6fb79503bb6967209ea71f3217a74fa3045",
        "tree_exkmc_k3.json": "bb4769bbf13d1d0ce367c055bf1a0c1cce60f2af2f593b49da529662cb63feef",
        "tree_exkmc_k6.dot": "d3f19673272c7ee9710b1e44150da8b2865f0f29dd9fcc7ab2d9863ba2d70dc0",
        "tree_exkmc_k6.json": "69e86418f9dda5eccaa64ee38a2a661e15bf4f629a861ef78332d7c7b3b3ae86",
        "tree_gini_tree_k12.dot": "42f67c986b89c763f90a5c1fa3bb2283852b41e22ea2f09fe51f7f45fc809792",
        "tree_gini_tree_k12.json": "42476a16bd3e4bf88049fc375392837509a0123e0bf0a3c9ced42ee62d4ef5bf",
        "tree_gini_tree_k3.dot": "42f67c986b89c763f90a5c1fa3bb2283852b41e22ea2f09fe51f7f45fc809792",
        "tree_gini_tree_k3.json": "42476a16bd3e4bf88049fc375392837509a0123e0bf0a3c9ced42ee62d4ef5bf",
        "tree_gini_tree_k6.dot": "42f67c986b89c763f90a5c1fa3bb2283852b41e22ea2f09fe51f7f45fc809792",
        "tree_gini_tree_k6.json": "42476a16bd3e4bf88049fc375392837509a0123e0bf0a3c9ced42ee62d4ef5bf",
        "tree_imm_k12.dot": "42f67c986b89c763f90a5c1fa3bb2283852b41e22ea2f09fe51f7f45fc809792",
        "tree_imm_k12.json": "42476a16bd3e4bf88049fc375392837509a0123e0bf0a3c9ced42ee62d4ef5bf",
        "tree_imm_k3.dot": "42f67c986b89c763f90a5c1fa3bb2283852b41e22ea2f09fe51f7f45fc809792",
        "tree_imm_k3.json": "42476a16bd3e4bf88049fc375392837509a0123e0bf0a3c9ced42ee62d4ef5bf",
        "tree_imm_k6.dot": "42f67c986b89c763f90a5c1fa3bb2283852b41e22ea2f09fe51f7f45fc809792",
        "tree_imm_k6.json": "42476a16bd3e4bf88049fc375392837509a0123e0bf0a3c9ced42ee62d4ef5bf",
        "tree_kdtree_k12.dot": "3998965c0a01f917051fa710379a50c2ce1a0ce8f089200773c345993e1bccaf",
        "tree_kdtree_k12.json": "2fc5254a08bef5520700d017905dbb567250088782a9917f7ede8540b6485115",
        "tree_kdtree_k3.dot": "1efbda0ae97c4462428c15bd2b5a97f8bcede5845d6aa72006851592cb59c153",
        "tree_kdtree_k3.json": "d573843aeb467ea1717db0d8dfa936f1ba2073cde64ffb18fdbc24ada1232b47",
        "tree_kdtree_k6.dot": "bf0672d50af07749b83d5f51a774c035b58630e780848208ef7c42cc83ba44a1",
        "tree_kdtree_k6.json": "bd31e619c94c228f782c4d852163650d37c16bad872689974021dc6813929e71"
    },
    "blobs_2d": {
        "results.csv": "4ca4f05cf66f833862cbd2faf98c741ab849ccd97682ef75feb5e65c0b76590c",
        "trace_exkmc_imm_k16.jsonl": "2657f91cfab3ce78cbd1b62cb689427810a484ae4084a33537a571832f611aaa",
        "trace_exkmc_imm_k4.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "trace_exkmc_imm_k8.jsonl": "0e2e5abbf11138ef096643f117dd7ec55ccf698b8efe81404807f6ab9f9a8932",
        "trace_exkmc_k16.jsonl": "89696f6d5a6d34734c6e16d60612db59282506e2ae5a640856cedc7206353f24",
        "trace_exkmc_k4.jsonl": "5b21ebf38d642dc490ec368c5498ba6457f987d42398b4fa63fe2828e3dd4bdd",
        "trace_exkmc_k8.jsonl": "587ab1d98bdf8c46391502736d58f890b991e88dc4a804c8b56a4a2571a905d4",
        "tree_exkmc_imm_k16.dot": "33d056094c2f822d3f118f28bb078b86548c9b294172b295b82086f3a682a2d7",
        "tree_exkmc_imm_k16.json": "10cb0e4ec7f25f6539d4eed8dc92473ac63d8b827bdf4d0579efa93959969266",
        "tree_exkmc_imm_k4.dot": "ae8c09eeff21b8e5e46b49bea6bd77ef2ee807461d815f103fc79eb07ffba194",
        "tree_exkmc_imm_k4.json": "1bd11bb2931157f276e79aec0cc767220983b4c480001c63577a95a04a9fa838",
        "tree_exkmc_imm_k8.dot": "bd3bf14016924cab2289fe682470c1dc55c9500f44c99e7b78c2831f4b6ff001",
        "tree_exkmc_imm_k8.json": "9af3add094b96c1affd5ebdb4b00ad1c3c326de259ab43cc07e4178af85a3773",
        "tree_exkmc_k16.dot": "d9cb246d53c42f5ea6ca17ad5ac82198e3eb566de60c5dd2a82fe596eaa65d98",
        "tree_exkmc_k16.json": "9787d7feed519e7e780ef980c16ec0a1ba90d3d1528db36c93a1749d0be52420",
        "tree_exkmc_k4.dot": "2b0d30b81ba37bcd500885757643ed5497b0fe0f0b6c944bbd76a9c04d649e7c",
        "tree_exkmc_k4.json": "3a37dce2d44149d204de7f46e69f9aaf2ab5c8fde97da67568c23735a67382ef",
        "tree_exkmc_k8.dot": "32fd5a2abdab5b0fd38906da324599e70f18a82152f878006788af9a01126dcc",
        "tree_exkmc_k8.json": "7ae4b07737f4a49b7cfc14a4bc043ab3695de345273fcbc564812806931a59a2",
        "tree_gini_tree_k16.dot": "ae8c09eeff21b8e5e46b49bea6bd77ef2ee807461d815f103fc79eb07ffba194",
        "tree_gini_tree_k16.json": "1bd11bb2931157f276e79aec0cc767220983b4c480001c63577a95a04a9fa838",
        "tree_gini_tree_k4.dot": "ae8c09eeff21b8e5e46b49bea6bd77ef2ee807461d815f103fc79eb07ffba194",
        "tree_gini_tree_k4.json": "1bd11bb2931157f276e79aec0cc767220983b4c480001c63577a95a04a9fa838",
        "tree_gini_tree_k8.dot": "ae8c09eeff21b8e5e46b49bea6bd77ef2ee807461d815f103fc79eb07ffba194",
        "tree_gini_tree_k8.json": "1bd11bb2931157f276e79aec0cc767220983b4c480001c63577a95a04a9fa838",
        "tree_imm_k16.dot": "ae8c09eeff21b8e5e46b49bea6bd77ef2ee807461d815f103fc79eb07ffba194",
        "tree_imm_k16.json": "1bd11bb2931157f276e79aec0cc767220983b4c480001c63577a95a04a9fa838",
        "tree_imm_k4.dot": "ae8c09eeff21b8e5e46b49bea6bd77ef2ee807461d815f103fc79eb07ffba194",
        "tree_imm_k4.json": "1bd11bb2931157f276e79aec0cc767220983b4c480001c63577a95a04a9fa838",
        "tree_imm_k8.dot": "ae8c09eeff21b8e5e46b49bea6bd77ef2ee807461d815f103fc79eb07ffba194",
        "tree_imm_k8.json": "1bd11bb2931157f276e79aec0cc767220983b4c480001c63577a95a04a9fa838",
        "tree_kdtree_k16.dot": "c69c5f97cb1ff4c72e8eb4cabfda874c8d31f9ca652a570e20def1afdf6cf77b",
        "tree_kdtree_k16.json": "993a4fbc0aac19dde9a76400b0c91874b528701f6deb54be3b5c87ba9b28c2d8",
        "tree_kdtree_k4.dot": "0941e9edb4a6c554941661a0568f4ba3e5b258ab8ff092401185f63b0efdcb04",
        "tree_kdtree_k4.json": "392aea1cec2c4017d26658ed366afbb51ad7348638f8cd5f49d46eb4e22f0552",
        "tree_kdtree_k8.dot": "a55bf6511e347cf3fbc90773526d7f50558285342d2e9a9c3a8c1add62a024d7",
        "tree_kdtree_k8.json": "0a62d3321d998c88746ca7505022af1071e9cfd145cbd79bc4a9b42227aeb81e"
    },
    "blobs_deep_seed0": {
        "results.csv": "ec014dd8f4bfcf444dffd846ccce2773fa48873a43af17be7e9eeace93f952d4",
        "trace_exkmc_imm_k1500.jsonl": "54b243905a199f67caf1df593f285644291baebcaed82e48278a85b5cc33aaea",
        "trace_exkmc_imm_k4.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "trace_exkmc_imm_k500.jsonl": "3d08254c4020ad4fec071b3bc6a21d45037fc601406d782400e2803cd883d941",
        "trace_exkmc_k1500.jsonl": "75d2432cefb4e8233eda1bc0399fc04505814401c5bdef04c247e16617b2e852",
        "trace_exkmc_k4.jsonl": "4c4755f07a828ba51342a5cc32d5540fa89157432df2ca1f6a45e23180665cde",
        "trace_exkmc_k500.jsonl": "b777c99d5148b6da6271f53e070aa734a80e0d5262dd9febd434968a06169225",
        "tree_exkmc_imm_k1500.dot": "7782c87061892f8bddf264f217a00c4939b6f0972bef59f993c0ba0d74cc71c9",
        "tree_exkmc_imm_k1500.json": "bd417729ee898cb95c73d7d531bb3ce797830fe74f59f9b21c7717d15adaa4b8",
        "tree_exkmc_imm_k4.dot": "376ef17119eb5336a8cdc3cd77a3dffdba10a16793220de3af0a73c9c7ceb7c3",
        "tree_exkmc_imm_k4.json": "6c39566ef3f050c87463a5a13d75ca79ddb984d412e2c17b1510546c00b79485",
        "tree_exkmc_imm_k500.dot": "33b31b61105177fc140b7c4c3569a7401f99690399f59a486b63b2ba6e1070f7",
        "tree_exkmc_imm_k500.json": "e4747bd6c5a48e92dc78264155a6c20ca6d181c13d04c7e60fc1e8237ffcdf18",
        "tree_exkmc_k1500.dot": "978175d35fda441728908d534738cb62ae474b287e4437b98febb7f02826a4c4",
        "tree_exkmc_k1500.json": "77ace87a257096bb4c92c300067b09baaf3136407a5c96836dcb571ee19d610a",
        "tree_exkmc_k4.dot": "6b7d272a621c9cf997431a112c7c3de1ebd4c7e1d3b76f8b5098f3ca618dfec5",
        "tree_exkmc_k4.json": "f4e64b7fe453f91826ffdf941d9f87692cf988847e23a48eb3c4e60cbb8c31ef",
        "tree_exkmc_k500.dot": "2926ba9beea7b56f60a8ff4b337f6e01e3cca2790431aee1b7969a384543703a",
        "tree_exkmc_k500.json": "e06fed965774e8d886a9164d4eaeba73cfb74f6a2256a4eab38e946223157566",
        "tree_gini_tree_k1500.dot": "72581e60808e341d66af9fb2fe9fc6d13aec1bac01e20c0ef9c12f983e6dc6fe",
        "tree_gini_tree_k1500.json": "7632e935d581d45128769d939f1216b273426c70c5ba9413eaf7b94962b68c8a",
        "tree_gini_tree_k4.dot": "af5ea2760c857cbcb57452f0366ecc14d2c2c3777865bee903363ad6ac386232",
        "tree_gini_tree_k4.json": "70c558cf81d89d2eb2be0a4b6715e84f1a084feb7374c7d2e1f3fb24306b4803",
        "tree_gini_tree_k500.dot": "72581e60808e341d66af9fb2fe9fc6d13aec1bac01e20c0ef9c12f983e6dc6fe",
        "tree_gini_tree_k500.json": "7632e935d581d45128769d939f1216b273426c70c5ba9413eaf7b94962b68c8a",
        "tree_imm_k1500.dot": "376ef17119eb5336a8cdc3cd77a3dffdba10a16793220de3af0a73c9c7ceb7c3",
        "tree_imm_k1500.json": "6c39566ef3f050c87463a5a13d75ca79ddb984d412e2c17b1510546c00b79485",
        "tree_imm_k4.dot": "376ef17119eb5336a8cdc3cd77a3dffdba10a16793220de3af0a73c9c7ceb7c3",
        "tree_imm_k4.json": "6c39566ef3f050c87463a5a13d75ca79ddb984d412e2c17b1510546c00b79485",
        "tree_imm_k500.dot": "376ef17119eb5336a8cdc3cd77a3dffdba10a16793220de3af0a73c9c7ceb7c3",
        "tree_imm_k500.json": "6c39566ef3f050c87463a5a13d75ca79ddb984d412e2c17b1510546c00b79485",
        "tree_kdtree_k1500.dot": "db4bfcf7c9b660b57804fa7e19fb3f5814d188c3f2fa12335302e74da85d187c",
        "tree_kdtree_k1500.json": "5ad87c56509a719f804b6d8aac7c6e3f70669bb89382d76de4cbe81b4415267d",
        "tree_kdtree_k4.dot": "90483ad3e6142f112c82ac7fad103ed152d2a14aa833e8f6fa2cc72060c760a8",
        "tree_kdtree_k4.json": "6eb82b4c8fd10a0dee3dd7aa1af31e90aa1e0ea7b798cf85a4bca1611b1eb266",
        "tree_kdtree_k500.dot": "7d296a48b54c53a42b43b16fec46aea5ae0875b47eed93e0a693ec2e5bd4b6c3",
        "tree_kdtree_k500.json": "942b1b29cc89d5e54c06c3faebd749d16a380bd4244b91b935b80fbfb06db662"
    },
    "blobs_deep_seed0_jobs3": {
        "results.csv": "ec014dd8f4bfcf444dffd846ccce2773fa48873a43af17be7e9eeace93f952d4",
        "trace_exkmc_imm_k1500.jsonl": "54b243905a199f67caf1df593f285644291baebcaed82e48278a85b5cc33aaea",
        "trace_exkmc_imm_k4.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "trace_exkmc_imm_k500.jsonl": "3d08254c4020ad4fec071b3bc6a21d45037fc601406d782400e2803cd883d941",
        "trace_exkmc_k1500.jsonl": "75d2432cefb4e8233eda1bc0399fc04505814401c5bdef04c247e16617b2e852",
        "trace_exkmc_k4.jsonl": "4c4755f07a828ba51342a5cc32d5540fa89157432df2ca1f6a45e23180665cde",
        "trace_exkmc_k500.jsonl": "b777c99d5148b6da6271f53e070aa734a80e0d5262dd9febd434968a06169225",
        "tree_exkmc_imm_k1500.dot": "7782c87061892f8bddf264f217a00c4939b6f0972bef59f993c0ba0d74cc71c9",
        "tree_exkmc_imm_k1500.json": "bd417729ee898cb95c73d7d531bb3ce797830fe74f59f9b21c7717d15adaa4b8",
        "tree_exkmc_imm_k4.dot": "376ef17119eb5336a8cdc3cd77a3dffdba10a16793220de3af0a73c9c7ceb7c3",
        "tree_exkmc_imm_k4.json": "6c39566ef3f050c87463a5a13d75ca79ddb984d412e2c17b1510546c00b79485",
        "tree_exkmc_imm_k500.dot": "33b31b61105177fc140b7c4c3569a7401f99690399f59a486b63b2ba6e1070f7",
        "tree_exkmc_imm_k500.json": "e4747bd6c5a48e92dc78264155a6c20ca6d181c13d04c7e60fc1e8237ffcdf18",
        "tree_exkmc_k1500.dot": "978175d35fda441728908d534738cb62ae474b287e4437b98febb7f02826a4c4",
        "tree_exkmc_k1500.json": "77ace87a257096bb4c92c300067b09baaf3136407a5c96836dcb571ee19d610a",
        "tree_exkmc_k4.dot": "6b7d272a621c9cf997431a112c7c3de1ebd4c7e1d3b76f8b5098f3ca618dfec5",
        "tree_exkmc_k4.json": "f4e64b7fe453f91826ffdf941d9f87692cf988847e23a48eb3c4e60cbb8c31ef",
        "tree_exkmc_k500.dot": "2926ba9beea7b56f60a8ff4b337f6e01e3cca2790431aee1b7969a384543703a",
        "tree_exkmc_k500.json": "e06fed965774e8d886a9164d4eaeba73cfb74f6a2256a4eab38e946223157566",
        "tree_gini_tree_k1500.dot": "72581e60808e341d66af9fb2fe9fc6d13aec1bac01e20c0ef9c12f983e6dc6fe",
        "tree_gini_tree_k1500.json": "7632e935d581d45128769d939f1216b273426c70c5ba9413eaf7b94962b68c8a",
        "tree_gini_tree_k4.dot": "af5ea2760c857cbcb57452f0366ecc14d2c2c3777865bee903363ad6ac386232",
        "tree_gini_tree_k4.json": "70c558cf81d89d2eb2be0a4b6715e84f1a084feb7374c7d2e1f3fb24306b4803",
        "tree_gini_tree_k500.dot": "72581e60808e341d66af9fb2fe9fc6d13aec1bac01e20c0ef9c12f983e6dc6fe",
        "tree_gini_tree_k500.json": "7632e935d581d45128769d939f1216b273426c70c5ba9413eaf7b94962b68c8a",
        "tree_imm_k1500.dot": "376ef17119eb5336a8cdc3cd77a3dffdba10a16793220de3af0a73c9c7ceb7c3",
        "tree_imm_k1500.json": "6c39566ef3f050c87463a5a13d75ca79ddb984d412e2c17b1510546c00b79485",
        "tree_imm_k4.dot": "376ef17119eb5336a8cdc3cd77a3dffdba10a16793220de3af0a73c9c7ceb7c3",
        "tree_imm_k4.json": "6c39566ef3f050c87463a5a13d75ca79ddb984d412e2c17b1510546c00b79485",
        "tree_imm_k500.dot": "376ef17119eb5336a8cdc3cd77a3dffdba10a16793220de3af0a73c9c7ceb7c3",
        "tree_imm_k500.json": "6c39566ef3f050c87463a5a13d75ca79ddb984d412e2c17b1510546c00b79485",
        "tree_kdtree_k1500.dot": "db4bfcf7c9b660b57804fa7e19fb3f5814d188c3f2fa12335302e74da85d187c",
        "tree_kdtree_k1500.json": "5ad87c56509a719f804b6d8aac7c6e3f70669bb89382d76de4cbe81b4415267d",
        "tree_kdtree_k4.dot": "90483ad3e6142f112c82ac7fad103ed152d2a14aa833e8f6fa2cc72060c760a8",
        "tree_kdtree_k4.json": "6eb82b4c8fd10a0dee3dd7aa1af31e90aa1e0ea7b798cf85a4bca1611b1eb266",
        "tree_kdtree_k500.dot": "7d296a48b54c53a42b43b16fec46aea5ae0875b47eed93e0a693ec2e5bd4b6c3",
        "tree_kdtree_k500.json": "942b1b29cc89d5e54c06c3faebd749d16a380bd4244b91b935b80fbfb06db662"
    },
    "blobs_deep_seed7": {
        "results.csv": "68604c725486254017a6a1bd05c0ee3dc31586ab62dc2e260f35d2ff1857fa9a",
        "trace_exkmc_imm_k1500.jsonl": "e5d6668cc27dfd11b3ba81f78125ec30b071fbe8ab78db6fb048e578cddf0131",
        "trace_exkmc_imm_k4.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "trace_exkmc_imm_k500.jsonl": "05db79bcf18d85efa9dcae4c8c77b9f48dd0b61d6893e9d209410623a4181ef0",
        "trace_exkmc_k1500.jsonl": "fa896dce47d28b7d3e76ca223e9ce4291f336409a26de85bc12840a866424f3a",
        "trace_exkmc_k4.jsonl": "0b8da056f79c294769a0ffb50bd327c449d1db72dfa4ca6df977d3262fa05cb6",
        "trace_exkmc_k500.jsonl": "8fdd0abbc4cc001ed128a3df8232cdee5810c19cb025903085c0dd363e85dcdb",
        "tree_exkmc_imm_k1500.dot": "68f0545aac9a824c84847086bb23a52818e1824ec694087321ee7cf51220bf4a",
        "tree_exkmc_imm_k1500.json": "72b6a1e353f86f089eb39304ba4480120dc50422261e9ea82646690e3da5adf7",
        "tree_exkmc_imm_k4.dot": "4b9f740a383492e1279025ded3d6ea7327a963bb57b3ea769bb95276e86e130c",
        "tree_exkmc_imm_k4.json": "6a659acaf892737a1bc94f878361697dfa1095b6c96bee24ed696e7893696198",
        "tree_exkmc_imm_k500.dot": "fd3d1c41a94aa715705f3929269e83e5c733e47241c8d8b2f61e8cd938b66a5f",
        "tree_exkmc_imm_k500.json": "dd82caf5d452841eb962ecb19bba81069ecfd5587480c5f91499c3a233cc6a33",
        "tree_exkmc_k1500.dot": "dfb52822d91c849986eca016177ef717d7b31133038c45a6b767ebd1faf16c24",
        "tree_exkmc_k1500.json": "934000f57c3d1512e2446d2e3e306844eeacfcb928ad8a8675a2fd30a00fcf73",
        "tree_exkmc_k4.dot": "cd4310db2feeffe91d21b2286f49b3f7c63e0eb597bca4a3843dc1fec6e826be",
        "tree_exkmc_k4.json": "c210d99b993b42bb432436d1e03ff7a133dd3d25f8013e30d27afa52e9253475",
        "tree_exkmc_k500.dot": "48c42e9c30ef96a81099be2ed3f30eb589b82837f512f62952e22baa8a5de646",
        "tree_exkmc_k500.json": "c43cd1d2e9f1ad4bcd6654ac2c219446b3c40c91f5a04f1bc1e708718499bd20",
        "tree_gini_tree_k1500.dot": "4b9f740a383492e1279025ded3d6ea7327a963bb57b3ea769bb95276e86e130c",
        "tree_gini_tree_k1500.json": "6a659acaf892737a1bc94f878361697dfa1095b6c96bee24ed696e7893696198",
        "tree_gini_tree_k4.dot": "4b9f740a383492e1279025ded3d6ea7327a963bb57b3ea769bb95276e86e130c",
        "tree_gini_tree_k4.json": "6a659acaf892737a1bc94f878361697dfa1095b6c96bee24ed696e7893696198",
        "tree_gini_tree_k500.dot": "4b9f740a383492e1279025ded3d6ea7327a963bb57b3ea769bb95276e86e130c",
        "tree_gini_tree_k500.json": "6a659acaf892737a1bc94f878361697dfa1095b6c96bee24ed696e7893696198",
        "tree_imm_k1500.dot": "4b9f740a383492e1279025ded3d6ea7327a963bb57b3ea769bb95276e86e130c",
        "tree_imm_k1500.json": "6a659acaf892737a1bc94f878361697dfa1095b6c96bee24ed696e7893696198",
        "tree_imm_k4.dot": "4b9f740a383492e1279025ded3d6ea7327a963bb57b3ea769bb95276e86e130c",
        "tree_imm_k4.json": "6a659acaf892737a1bc94f878361697dfa1095b6c96bee24ed696e7893696198",
        "tree_imm_k500.dot": "4b9f740a383492e1279025ded3d6ea7327a963bb57b3ea769bb95276e86e130c",
        "tree_imm_k500.json": "6a659acaf892737a1bc94f878361697dfa1095b6c96bee24ed696e7893696198",
        "tree_kdtree_k1500.dot": "c7d834e6fe193e6267736b8bf662506b6fc5ba7def42bcc93c468963b0dffda1",
        "tree_kdtree_k1500.json": "3ab710c773bd75f8d7f278e3fec77c16cd92d13d2b5cb009d312fdd537353120",
        "tree_kdtree_k4.dot": "3fbd42257522804bc21851860c204b9649d8453e7d4201ae9ee6963cfded31ec",
        "tree_kdtree_k4.json": "bccfb256ea6e575d6102805d599130be4745344e0a1c2bf02d6584b373e59135",
        "tree_kdtree_k500.dot": "6c1c0b91baba302cb968242214dd8349e1c31668ae155b32f6473412c4e5754e",
        "tree_kdtree_k500.json": "50011775c8eac5992898bb8bf1889f65f77ee85bef9878b315d7bd413ca509b3"
    },
    "blobs_tall_seed0": {
        "results.csv": "e69e29ceecbcf837f769b09dca700e762be65f1a91599547844e3c7026ca71ba",
        "trace_exkmc_imm_k16.jsonl": "2a8ce98d71f51f7ff66a67b45b2177ad27b19e72b25abd85267eccbc999577e4",
        "trace_exkmc_imm_k4.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "trace_exkmc_imm_k8.jsonl": "caaad32391c1d387dd3d6564877d3bee0a548ff93fd151c9804f5f7ca656a977",
        "trace_exkmc_k16.jsonl": "64a3ae6ace5d738930fc0843486f9da9f604fe929b2cffdb4d13dff7fedad080",
        "trace_exkmc_k4.jsonl": "c4a2f2532b1ec0fbb05996c56c99a26b45ab31c2c48e83f76924d794af8829b2",
        "trace_exkmc_k8.jsonl": "04d44bd09e794caa1d556d347652124359d86bd6b8a35545b79856a09b7a6ca8",
        "tree_exkmc_imm_k16.dot": "590ef09f38b701c94d4dbd278876fee04cbd92dba2fa592e234ba845ea4f1545",
        "tree_exkmc_imm_k16.json": "d7e29273d5384127a011fceb31430cf39534bc9782fae7ecd55fbafbf3beb212",
        "tree_exkmc_imm_k4.dot": "22f350b5b9a60aff1ab16ac0a8b7ad0aa3ce59687677d40a467ebddfa24f142b",
        "tree_exkmc_imm_k4.json": "3bfa2a13239b417886e12365b8fd85352ae23a9b9e6e09e90733b5f8c0f8aafa",
        "tree_exkmc_imm_k8.dot": "07cdd59970e0cb1aca5e7afcc0e3568cecebb6c7ac47275c2b26e4b295da76f3",
        "tree_exkmc_imm_k8.json": "dc83c7d139f20fd0920325235209ffbb6bb6edaead8dfbf5e62e7de36aef6d60",
        "tree_exkmc_k16.dot": "39db5bbe9a12a11eceeb5dcdc14bb7a217f0a0e359341f6c769c8c0dbc09ff53",
        "tree_exkmc_k16.json": "9da2b7670b228c5a5c89e3330eea5d8a34d9d5f912c87a34d1e43c07cef4b1c2",
        "tree_exkmc_k4.dot": "930577b591c1993f8e94de5377a288b634ede55ae8930dca8cfdd80a1b661b6d",
        "tree_exkmc_k4.json": "945db9a59b5d57a843af5a232efdcb5a997c95621cfb1c8b3e70d5daad537ad3",
        "tree_exkmc_k8.dot": "6f2cc7e031363dae38a78423aa56d91e9cc8658af17c02c9598c58c7a3010bce",
        "tree_exkmc_k8.json": "b956591d60aef38ec7293788bd82cb393a97189e576f9b20aec5ee1a0509ab6b",
        "tree_gini_tree_k16.dot": "22f350b5b9a60aff1ab16ac0a8b7ad0aa3ce59687677d40a467ebddfa24f142b",
        "tree_gini_tree_k16.json": "3bfa2a13239b417886e12365b8fd85352ae23a9b9e6e09e90733b5f8c0f8aafa",
        "tree_gini_tree_k4.dot": "22f350b5b9a60aff1ab16ac0a8b7ad0aa3ce59687677d40a467ebddfa24f142b",
        "tree_gini_tree_k4.json": "3bfa2a13239b417886e12365b8fd85352ae23a9b9e6e09e90733b5f8c0f8aafa",
        "tree_gini_tree_k8.dot": "22f350b5b9a60aff1ab16ac0a8b7ad0aa3ce59687677d40a467ebddfa24f142b",
        "tree_gini_tree_k8.json": "3bfa2a13239b417886e12365b8fd85352ae23a9b9e6e09e90733b5f8c0f8aafa",
        "tree_imm_k16.dot": "22f350b5b9a60aff1ab16ac0a8b7ad0aa3ce59687677d40a467ebddfa24f142b",
        "tree_imm_k16.json": "3bfa2a13239b417886e12365b8fd85352ae23a9b9e6e09e90733b5f8c0f8aafa",
        "tree_imm_k4.dot": "22f350b5b9a60aff1ab16ac0a8b7ad0aa3ce59687677d40a467ebddfa24f142b",
        "tree_imm_k4.json": "3bfa2a13239b417886e12365b8fd85352ae23a9b9e6e09e90733b5f8c0f8aafa",
        "tree_imm_k8.dot": "22f350b5b9a60aff1ab16ac0a8b7ad0aa3ce59687677d40a467ebddfa24f142b",
        "tree_imm_k8.json": "3bfa2a13239b417886e12365b8fd85352ae23a9b9e6e09e90733b5f8c0f8aafa",
        "tree_kdtree_k16.dot": "6b63559754e348fb4c4e8a4e74ac0a7d57d3be844e59eaba39a9984eb33b3f43",
        "tree_kdtree_k16.json": "8285dcbcb621285954371a3ba07f63be163135e1529bd4fea1bef4e4fedc85b5",
        "tree_kdtree_k4.dot": "ce31f8fdd4d0608b4528bb22e43a2198a1e8bd0ed20762b68746de57b3bc9459",
        "tree_kdtree_k4.json": "01124feafa893cf5dc17ab054eacf88c48c41aeee138eb7dde770fa589048f8f",
        "tree_kdtree_k8.dot": "6eb72524042ab5bd89cedf1c2db8503ac8c9d2fefb2929ff6245af589b77e0ac",
        "tree_kdtree_k8.json": "8fb5858aa2ef50397a8d5c334783a64bf63939fc5865b4f72148a8fbb2885e54"
    },
    "blobs_tall_seed7": {
        "results.csv": "4c1a4f7e3426e3fda37100f444dfe4fae5abf1c0db4c261d65236a5afac53acc",
        "trace_exkmc_imm_k16.jsonl": "084510db43962e267f002f97fcf93d8bcd2517c934cfc9ae25704268f4679de7",
        "trace_exkmc_imm_k4.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "trace_exkmc_imm_k8.jsonl": "267c7b389c8b4d6e01d35bc7d76088cf591cf6d699761584df75d822f6a3f820",
        "trace_exkmc_k16.jsonl": "1ec7e1ee49c337be0154be2b268a49297ae493a06476b0745e795dc89f8c759a",
        "trace_exkmc_k4.jsonl": "16a29c9e7abee0a80929735ab49f6129bc2c290317299561fd39d584171ebcbc",
        "trace_exkmc_k8.jsonl": "c62f607b5942c9d776748cdc837932e8d714c57307686ee5900bab23f812db3c",
        "tree_exkmc_imm_k16.dot": "2616f7a540c3a75b893aba18e86862d0383436b8fa79a0682a03c595f9e42bf3",
        "tree_exkmc_imm_k16.json": "13df448a143399661080d6960f1646a1965b67fc7592134f5def4038db02d693",
        "tree_exkmc_imm_k4.dot": "4c6523d82a08ed838611ff76b3bd3d45c422e5b7c43c2bb826379544e09d913d",
        "tree_exkmc_imm_k4.json": "efbd4f8030d988f5f520bde2c0a8b1a6e4ac14a5895441cac0ce740df63d3d65",
        "tree_exkmc_imm_k8.dot": "6ddcef3314cf269b9527a870d5c581398d417cb37c6c4cfc1220f0fec19d2686",
        "tree_exkmc_imm_k8.json": "318f25a3c8ffbb81ee401b6d56135ef3ed72086f3d1e9f04dd05fee125147b93",
        "tree_exkmc_k16.dot": "265786f4cb236231233aa675323ee61c0360ed7e60f56b034b80662faf762304",
        "tree_exkmc_k16.json": "334cadb42af9079801282158ebd9b64623a948a7c3e786abf66bacfe340a2421",
        "tree_exkmc_k4.dot": "74deffba2559eef2d6a7310f3acae3b5328b4283e2084f67da75710188aa8a05",
        "tree_exkmc_k4.json": "7f6de6e1123120bd6eb2e5a726699f65b083a3f7af1301c953547400f8390133",
        "tree_exkmc_k8.dot": "e893452f321bfa3ac67e7a00b622a5fb8a22d3472e1dcc64f8bc01622176d377",
        "tree_exkmc_k8.json": "45492f1cf2645beec2b682a22dc8edd0e44196d6900aabfac4ba969eb6a810bb",
        "tree_gini_tree_k16.dot": "03d1b0ba55b83b18c72fc41a41da8c26d53b02fe8255a7968d9a3e2aadf943cf",
        "tree_gini_tree_k16.json": "7af55ffe499eab87671a3454760a5b8d6538bb9985039b116f446bd850368dac",
        "tree_gini_tree_k4.dot": "4c6523d82a08ed838611ff76b3bd3d45c422e5b7c43c2bb826379544e09d913d",
        "tree_gini_tree_k4.json": "efbd4f8030d988f5f520bde2c0a8b1a6e4ac14a5895441cac0ce740df63d3d65",
        "tree_gini_tree_k8.dot": "03d1b0ba55b83b18c72fc41a41da8c26d53b02fe8255a7968d9a3e2aadf943cf",
        "tree_gini_tree_k8.json": "7af55ffe499eab87671a3454760a5b8d6538bb9985039b116f446bd850368dac",
        "tree_imm_k16.dot": "4c6523d82a08ed838611ff76b3bd3d45c422e5b7c43c2bb826379544e09d913d",
        "tree_imm_k16.json": "efbd4f8030d988f5f520bde2c0a8b1a6e4ac14a5895441cac0ce740df63d3d65",
        "tree_imm_k4.dot": "4c6523d82a08ed838611ff76b3bd3d45c422e5b7c43c2bb826379544e09d913d",
        "tree_imm_k4.json": "efbd4f8030d988f5f520bde2c0a8b1a6e4ac14a5895441cac0ce740df63d3d65",
        "tree_imm_k8.dot": "4c6523d82a08ed838611ff76b3bd3d45c422e5b7c43c2bb826379544e09d913d",
        "tree_imm_k8.json": "efbd4f8030d988f5f520bde2c0a8b1a6e4ac14a5895441cac0ce740df63d3d65",
        "tree_kdtree_k16.dot": "8289e187247c3ba9da31349f441ea658beb7f1be1d178caee9e08eff88f2e6f2",
        "tree_kdtree_k16.json": "09b2482da3a25e8f469b4c6531d821edcd7163a3e9ec4cd4d6a69d8ae0411c2e",
        "tree_kdtree_k4.dot": "e6945e83f68cadb09609bcdf11520e6413760c6d0b6dc85e1852fd9cafc3e98c",
        "tree_kdtree_k4.json": "860c952b6c23037f699d29dff319a61d50fc7c17fcdb426079070e251863d00b",
        "tree_kdtree_k8.dot": "ffa75ebf5516f8949867b4641f071d290d8a15db5aece91e4ac1529c88d9f696",
        "tree_kdtree_k8.json": "e10ace2285dc7d1fbcdf30059e6a7411ab29c26e29ba42c5fc718fe8b85a8352"
    },
    "iris": {
        "results.csv": "7ddcb5f8e83cd6728eaf753b93bf0ec3cc2c87d589daedec4a4c8cd535c97016",
        "trace_exkmc_imm_k3.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "trace_exkmc_imm_k6.jsonl": "f46fe00538687bdfd7fe39e2a1dea1b580158b507646fca48ae8928b254dcb35",
        "trace_exkmc_k3.jsonl": "9ec9a9fa5bb1d7cfd0bf151da5f3d48e153c8aaed397a95d39d068019960e011",
        "trace_exkmc_k6.jsonl": "7051426199bd4ad6cc3c66aeea88d2a4135be763c9d4c1c2f83fd06df270c354",
        "tree_exkmc_imm_k3.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_exkmc_imm_k3.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_exkmc_imm_k6.dot": "775fb47dd33eb0f595d04e6c4322ee148bcce8854846d1240e1a7ffca0c9bccf",
        "tree_exkmc_imm_k6.json": "2e7a3fc45ce5b8b7612743fe84aff6ff0543fe4aa8674747277f272590b4a2a1",
        "tree_exkmc_k3.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_exkmc_k3.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_exkmc_k6.dot": "775fb47dd33eb0f595d04e6c4322ee148bcce8854846d1240e1a7ffca0c9bccf",
        "tree_exkmc_k6.json": "2e7a3fc45ce5b8b7612743fe84aff6ff0543fe4aa8674747277f272590b4a2a1",
        "tree_gini_tree_k3.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_gini_tree_k3.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_gini_tree_k6.dot": "ab5629ec4e06b0f342dee0621116d95e65f10a565500f35c1bac4a992affe109",
        "tree_gini_tree_k6.json": "722d13b81358ebc8ccacb89e499cedea5d1785cbea13696a0d34c383235931f0",
        "tree_imm_k3.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_imm_k3.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_imm_k6.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_imm_k6.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_kdtree_k3.dot": "dc996082cc50da1879594e9bfb2dd3690620ce072145650b2a06ce2fb16fcf90",
        "tree_kdtree_k3.json": "c8199766f5ca949c1e03a0dcebc9744f010e04939f087de0fea7eb2c93f33a0a",
        "tree_kdtree_k6.dot": "ac5063670e6445f17ff7344ba42dc43d235df383712eb87883982c9fed06a0bb",
        "tree_kdtree_k6.json": "11f2e8974adfc9a47d817504e2605ac93af8a3fdb546bf8da3ddda697bf856c4"
    },
    "iris_deep": {
        "results.csv": "e7222a287a0edced81bc095a0210fc9d48bc174f2342c643b0588f8932f73100",
        "trace_exkmc_imm_k150.jsonl": "e9aff76d7b8e571d50949cf864487063e140085fd76179566e1384ea5262faa3",
        "trace_exkmc_imm_k3.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "trace_exkmc_imm_k40.jsonl": "b7f8546c2da9b2c0a52043b77043a101e0721f6d6df9d673d08c768ccbd8fd1a",
        "trace_exkmc_k150.jsonl": "0b54475d092cb5a7da3c6586383d1df2666900cc721bf4b6a4ac3792bd2d52c9",
        "trace_exkmc_k3.jsonl": "9ec9a9fa5bb1d7cfd0bf151da5f3d48e153c8aaed397a95d39d068019960e011",
        "trace_exkmc_k40.jsonl": "8e12782316961ea6aada264e5be1e8a398721daa6c8ec18883ce81126083c919",
        "tree_exkmc_imm_k150.dot": "f3b89f74735907361aa9f34114a0aa0c64e3fc6493bd58b359b30727184660fc",
        "tree_exkmc_imm_k150.json": "5d3efcf7970e6c356ec9f55882889ce89e9ece1e831ef15695b3d77e1b5195f1",
        "tree_exkmc_imm_k3.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_exkmc_imm_k3.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_exkmc_imm_k40.dot": "4899a88201b321ef0e34deafc8e3f72ed8f4ba60b66f13bdc6455552131a74a1",
        "tree_exkmc_imm_k40.json": "80d38079cd4861fc09619e15c757633f91c97f29efe02611c2e6182aa91d9fbb",
        "tree_exkmc_k150.dot": "f3b89f74735907361aa9f34114a0aa0c64e3fc6493bd58b359b30727184660fc",
        "tree_exkmc_k150.json": "5d3efcf7970e6c356ec9f55882889ce89e9ece1e831ef15695b3d77e1b5195f1",
        "tree_exkmc_k3.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_exkmc_k3.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_exkmc_k40.dot": "4899a88201b321ef0e34deafc8e3f72ed8f4ba60b66f13bdc6455552131a74a1",
        "tree_exkmc_k40.json": "80d38079cd4861fc09619e15c757633f91c97f29efe02611c2e6182aa91d9fbb",
        "tree_gini_tree_k150.dot": "ab5629ec4e06b0f342dee0621116d95e65f10a565500f35c1bac4a992affe109",
        "tree_gini_tree_k150.json": "722d13b81358ebc8ccacb89e499cedea5d1785cbea13696a0d34c383235931f0",
        "tree_gini_tree_k3.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_gini_tree_k3.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_gini_tree_k40.dot": "ab5629ec4e06b0f342dee0621116d95e65f10a565500f35c1bac4a992affe109",
        "tree_gini_tree_k40.json": "722d13b81358ebc8ccacb89e499cedea5d1785cbea13696a0d34c383235931f0",
        "tree_imm_k150.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_imm_k150.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_imm_k3.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_imm_k3.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_imm_k40.dot": "018449117417f7a15abe890ba2e04165a28e1190e06ce5803ca6ab27db03cc8a",
        "tree_imm_k40.json": "379e549bfdec06a682fd3daccdaf2852f445cc1cbee8c8ffa8e47af562b7e548",
        "tree_kdtree_k150.dot": "321cabbdcbd393ad33cf7e9e729b75064ed9ec712f80e2eb9bbade732ed61312",
        "tree_kdtree_k150.json": "61efcda650067cef903e41271eeab3f1c3a0419d24e9f0374f10fc1656a9b977",
        "tree_kdtree_k3.dot": "dc996082cc50da1879594e9bfb2dd3690620ce072145650b2a06ce2fb16fcf90",
        "tree_kdtree_k3.json": "c8199766f5ca949c1e03a0dcebc9744f010e04939f087de0fea7eb2c93f33a0a",
        "tree_kdtree_k40.dot": "a1a139880c771b7dd3943e22345a3581274c7a77c24310293c817d560b49d02b",
        "tree_kdtree_k40.json": "e489e03868a9e6e53a42283cca22a4200b4b47d006a4e1c29f68341c7dac003f"
    },
    "outlier_wide_seed0": {
        "results.csv": "36b43ecfbff9592952b84d1f1869819e277777991294bcbc0cbe49758c46b399",
        "trace_exkmc_imm_k12.jsonl": "7c357650daab90594e607e04524d24c9837bb1ec2a86da4cc2048aa385e188ea",
        "trace_exkmc_imm_k3.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "tree_exkmc_imm_k12.dot": "7773ce898d14452a64a05a0e33b84ea1bca583d0cb0abaf549150bf69c4cac73",
        "tree_exkmc_imm_k12.json": "fc251c7b837ee24fb42efaadab249a9b1f9d2f14017c14f30335726e46bf79db",
        "tree_exkmc_imm_k3.dot": "6236a3529e611ee9dc60e444ce190a81426333e6e370ebd808cdf4f6b2e9b884",
        "tree_exkmc_imm_k3.json": "0ee5692b5350e520d0228a178938638ceb6f2bddfbb1c556c2313cc6a5fe6453",
        "tree_gini_tree_k12.dot": "56ec22526aa9f55445ac6a4e7d3a74ded070d572d361bb166f0009918e319a24",
        "tree_gini_tree_k12.json": "ef7aa2e9bcd1dc73bb72664aedcb975708f29aae86076cb3d0c77c327bc036c7",
        "tree_gini_tree_k3.dot": "3897dcd8a31ba9092bc3b7bebf038e96a8b2c667c2dc94f4cd0ea8dfd8e085c3",
        "tree_gini_tree_k3.json": "5964381b1d3cc5ede31ea5e71358449afa64edc396364c6e8437c8fbe47160c0",
        "tree_imm_k12.dot": "6236a3529e611ee9dc60e444ce190a81426333e6e370ebd808cdf4f6b2e9b884",
        "tree_imm_k12.json": "0ee5692b5350e520d0228a178938638ceb6f2bddfbb1c556c2313cc6a5fe6453",
        "tree_imm_k3.dot": "6236a3529e611ee9dc60e444ce190a81426333e6e370ebd808cdf4f6b2e9b884",
        "tree_imm_k3.json": "0ee5692b5350e520d0228a178938638ceb6f2bddfbb1c556c2313cc6a5fe6453",
        "tree_kdtree_k12.dot": "1ce7a58eeebad276d7daac47ccc24268e5002e321d3ef37c286e6594a5535b48",
        "tree_kdtree_k12.json": "5bf5503fb7b5f20f3f674dd8f9e1934b239a14db1f436d75629e2e5c8c06f01e",
        "tree_kdtree_k3.dot": "daade86f38758b3ffa4635af9f884e781b3c1dbe109ab640e904177b57ca09a0",
        "tree_kdtree_k3.json": "b99747982095997377a4e04b3fe7cd6ff39cbeb57d89deb0bbd514d719e5f14b"
    },
    "outlier_wide_seed7": {
        "results.csv": "e33c675f16ef931f8435cc93075aeda3c7765af62886fa0cc39b444df985b84b",
        "trace_exkmc_imm_k12.jsonl": "21ce37362dd924b24575eef524b9316b0412c7b1af1ccf0c4a30512930131df7",
        "trace_exkmc_imm_k3.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "tree_exkmc_imm_k12.dot": "598fda20e6600f9e2ad01bb0cbf894a0715eb4889389cfabbe0ca2698841240b",
        "tree_exkmc_imm_k12.json": "0efad03f1fe7fa8997855df738381ae1db0e07106d2bb899e251bb4b71c4c138",
        "tree_exkmc_imm_k3.dot": "33c59916d19215271f75af059caf7c9c7a8b3fee8aa8794303a2af0078ee4355",
        "tree_exkmc_imm_k3.json": "2ce03c98a26aa546a73d15822abf7e5b33b2ba9ddd37f128c9b73153218a7737",
        "tree_gini_tree_k12.dot": "95eeecb7ad0dba72d97ea5dced4c607ae38c7aff01d6b63ee4019416ceed70e0",
        "tree_gini_tree_k12.json": "6c840c0527ac49429f171b9ca2182d86303ed996eb7e80fb7b729d505c3f7d9f",
        "tree_gini_tree_k3.dot": "42f0466ee1d8af90a2c91462637c5ac3238c1ce3db967797f8599f2bdfe99b81",
        "tree_gini_tree_k3.json": "1acb546ca88eb346706c63d50209d3ccfa22d953f71d0e93929397336d3919f5",
        "tree_imm_k12.dot": "33c59916d19215271f75af059caf7c9c7a8b3fee8aa8794303a2af0078ee4355",
        "tree_imm_k12.json": "2ce03c98a26aa546a73d15822abf7e5b33b2ba9ddd37f128c9b73153218a7737",
        "tree_imm_k3.dot": "33c59916d19215271f75af059caf7c9c7a8b3fee8aa8794303a2af0078ee4355",
        "tree_imm_k3.json": "2ce03c98a26aa546a73d15822abf7e5b33b2ba9ddd37f128c9b73153218a7737",
        "tree_kdtree_k12.dot": "2f1129e0838d01f3923b9d5531528543ec8a63cc0614e73752027e7386cf9a1f",
        "tree_kdtree_k12.json": "de080b32e704378cc81f0ad3f8d6699cf5522b54ca7a5624085dd1bfceb206a0",
        "tree_kdtree_k3.dot": "92d14354d1020d5ee2d06734e7f5f7868640380ae920453cf9be05dda601d566",
        "tree_kdtree_k3.json": "9b06101c7ae2216e240b56aad99399dca807eb56b15a838fc4d30d03e6400417"
    },
    "synthetic2_wide": {
        "results.csv": "532cdb9c37a8c65815135526cf945e239032ec53e92b7db1712e6b0764fd2edd",
        "trace_exkmc_imm_k12.jsonl": "23a3706b67a94078c831ff516dfdb6b175c1ccd77aaba22d54fda2b4c14e8c63",
        "trace_exkmc_imm_k3.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "trace_exkmc_k12.jsonl": "0d57d4fe121927331a0babb517cdd62d40d36397d8147914740020e7c26ebe0e",
        "trace_exkmc_k3.jsonl": "b5fbfd5ea1449e90e097c5ae248f76b3759a241ae750f13441e30a42f736882b",
        "tree_exkmc_imm_k12.dot": "fb5b224c2ce9fdee5832ddd4c60ca6af8fa8d14e3170ceeda1c558d86de86a80",
        "tree_exkmc_imm_k12.json": "7e3cb59cf75815bc246b42c7419eed6c69316bf509af19784d943166a5550f0e",
        "tree_exkmc_imm_k3.dot": "4d368b1090ee00e93c841e2ff77ab902ef14c379121eb1cf03361f90a0db6661",
        "tree_exkmc_imm_k3.json": "eec0043e436c1680d24919a5da5d3aecff9208e730b7dfcc379f0eb3a7a4bbc4",
        "tree_exkmc_k12.dot": "54d5d295c1791dc708e77d9e6ebe4a765c48074b3b20c7e33b370d4378fad33e",
        "tree_exkmc_k12.json": "e4a7ff7c7fca684b3ee41243cc8b43c3783883b4ac77335d3158d904c43ca71e",
        "tree_exkmc_k3.dot": "d20ef5c9776946165a888ed42120548b4faf144aa34d1e2125423cea87ff406d",
        "tree_exkmc_k3.json": "1d8dfffcf5da88a6d59346cb81acd287d41b5fc185a2361c7fc42d95946a3284",
        "tree_gini_tree_k12.dot": "d1983e53a185a97b9f472e472be537d9a4f163126b369f27e7d054e9f30ce2bf",
        "tree_gini_tree_k12.json": "3a619cadbea180019f0aab414f3f39463fc6b5a47860406ff47649bf9133000e",
        "tree_gini_tree_k3.dot": "f888db93d4072db0ae96a7e2a930cd76eab776a9e2cb2883d9781b09a33f3946",
        "tree_gini_tree_k3.json": "9464b0f0d8aed4696844035d46d7071e3baed8394114ad5210cced78d591b9b6",
        "tree_imm_k12.dot": "4d368b1090ee00e93c841e2ff77ab902ef14c379121eb1cf03361f90a0db6661",
        "tree_imm_k12.json": "eec0043e436c1680d24919a5da5d3aecff9208e730b7dfcc379f0eb3a7a4bbc4",
        "tree_imm_k3.dot": "4d368b1090ee00e93c841e2ff77ab902ef14c379121eb1cf03361f90a0db6661",
        "tree_imm_k3.json": "eec0043e436c1680d24919a5da5d3aecff9208e730b7dfcc379f0eb3a7a4bbc4",
        "tree_kdtree_k12.dot": "8e5629df60542108ad20bf2b234a2dc96cf84974889c4c7d0a765b1a666aa2cc",
        "tree_kdtree_k12.json": "6a7ab620db02639d0b8be6801bec2f891f2d50b0247564f8bcc7b57657b79e0f",
        "tree_kdtree_k3.dot": "dcb5e8d91ae9930bb4e47d0e3823400f85ce03bf50525b7068dbbb851e4caf58",
        "tree_kdtree_k3.json": "4dcf4c2a45698c61a40eef37b9ba1a19bb17a64d7b7a28fb198ac9d9c34caaf3"
    }
}


def _results_without_timing(path) -> bytes:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "wall_time_ms"  # the one timing column is the last
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(row[:-1] for row in rows)
    return out.getvalue().encode()


def digests(case: str, out_dir) -> dict[str, str]:
    """sha256 of each output file of one case, run into `out_dir`."""
    # seed 0 unless the case names its own: the last --seed given wins
    assert main(["run", "--seed", "0", *CASES[case], "--out", str(out_dir)]) == 0
    found = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "results.csv":
            data = _results_without_timing(path)
        elif path.name.startswith(("tree_", "trace_")):
            data = path.read_bytes()
        else:
            continue
        found[path.name] = hashlib.sha256(data).hexdigest()
    return found


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_digests(case, tmp_path):
    got = digests(case, tmp_path)
    assert sorted(got) == sorted(GOLDEN[case]), "a different set of output files"
    changed = [name for name in got if got[name] != GOLDEN[case][name]]
    assert not changed, f"outputs changed: {changed}"


_BUILTIN_SUM = builtins.sum


def neumaier_sum(iterable, /, start=0):
    """The builtin `sum` with floats added as CPython 3.12 adds them, with
    Neumaier's compensation (gh-100425); anything else as before."""
    items = list(iterable)
    if not items or not all(isinstance(x, float) for x in items):
        return _BUILTIN_SUM(items, start)
    total, compensation = float(start), 0.0
    for x in items:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation


def test_outputs_do_not_depend_on_how_the_builtin_sum_adds_floats(monkeypatch, tmp_path):
    # summed with compensation, iris_deep's leaf costs would move its
    # results.csv and traces; pyproject allows Python 3.10 on, across 3.12
    assert neumaier_sum([1.0, 1e100, 1.0, -1e100]) == 2.0 != _BUILTIN_SUM([1.0, 1e100, 1.0, -1e100])
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    assert digests("iris_deep", tmp_path) == GOLDEN["iris_deep"]


if __name__ == "__main__":
    # print a fresh GOLDEN table, for a change that moves bits on purpose
    import contextlib
    import tempfile
    from pathlib import Path

    table = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
            table[case] = digests(case, Path(tmp))
    json.dump(table, sys.stdout, indent=4, sort_keys=True)
    print()
