include Yashme_util.Json
